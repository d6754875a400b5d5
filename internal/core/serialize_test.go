package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/museum"
	"repro/internal/navigation"
)

// benchMuseum assembles the 50-painter, 20-painting, 8-movement synthetic
// museum under an indexed guided tour: 58 contexts, 2,058 pages and a
// 1.7 MB links.xml, the site navserve serves with -dataset synthetic
// -painters 50 -paintings 20 -movements 8.
func benchMuseum(tb testing.TB) *App {
	tb.Helper()
	store := museum.Synthetic(museum.SyntheticSpec{Painters: 50, PaintingsPerPainter: 20, Movements: 8, Seed: 1})
	app, err := NewApp(store, museum.Model(navigation.IndexedGuidedTour{}))
	if err != nil {
		tb.Fatal(err)
	}
	return app
}

// TestAppendIndentedLinkbaseAllocs: serializing links.xml into a buffer
// that already fits it allocates a fixed handful of objects (the
// declaring root's scope and the indentation cache), however large the
// linkbase is.
func TestAppendIndentedLinkbaseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	allocs := func(app *App) float64 {
		lb := app.Linkbase()
		buf := make([]byte, 0, len(lb.IndentedString()))
		return testing.AllocsPerRun(10, func() { buf = lb.AppendIndented(buf[:0]) })
	}
	small, large := allocs(paperApp(t, navigation.IndexedGuidedTour{})), allocs(benchMuseum(t))
	if small != large || large > 20 {
		t.Errorf("AppendIndented(links.xml) = %.0f allocs on the paper museum, %.0f on the 2,058-page one; want the same small constant",
			small, large)
	}
}

// BenchmarkNewApp assembles the synthetic museum's App from its store,
// as benchMuseum and navserve's start-up do: resolution, the export
// and serialization of every data document, and links.xml.
func BenchmarkNewApp(b *testing.B) {
	store := museum.Synthetic(museum.SyntheticSpec{Painters: 50, PaintingsPerPainter: 20, Movements: 8, Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewApp(store, museum.Model(navigation.IndexedGuidedTour{})); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewLinkbaseText writes the synthetic museum's links.xml from
// its contexts and reads them back, the linkbase work of NewApp.
func BenchmarkNewLinkbaseText(b *testing.B) {
	contexts := navigation.LinkbaseContexts(benchMuseum(b).Resolved())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		text, _, err := navigation.NewLinkbaseText(contexts)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(text.Bytes())))
	}
}

// BenchmarkAppendIndentedLinkbase serializes the synthetic museum's
// links.xml into a reused buffer, the work rebuild does per mutation.
func BenchmarkAppendIndentedLinkbase(b *testing.B) {
	lb := benchMuseum(b).Linkbase()
	buf := lb.AppendIndented(nil)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = lb.AppendIndented(buf[:0])
	}
}

// BenchmarkRebuildStructureSwap swaps one family of the synthetic museum
// between an indexed guided tour and an index: a full rebuild that
// re-serializes links.xml, under the write lock, as the control plane's
// structure PUT does.
func BenchmarkRebuildStructureSwap(b *testing.B) {
	app := benchMuseum(b)
	swaps := []navigation.AccessStructure{navigation.Index{}, navigation.IndexedGuidedTour{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := app.SetAccessStructure("ByAuthor", swaps[i%2]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMutationCaption edits one painting's technique on the
// synthetic museum and invalidates its document, as the control plane's
// document PATCH does: the edit reaches one data document and no
// context.
func BenchmarkMutationCaption(b *testing.B) {
	benchmarkMutation(b, "technique", func(i int) string { return fmt.Sprintf("Medium %d", i%2) })
}

// BenchmarkMutationTitle edits one painting's title on the synthetic
// museum and invalidates its document: the edit reaches the document and
// every context that lists the painting.
func BenchmarkMutationTitle(b *testing.B) {
	benchmarkMutation(b, "title", func(i int) string { return fmt.Sprintf("Work 0 of Painter 0 (%d)", i%2) })
}

func benchmarkMutation(b *testing.B, attr string, value func(int) string) {
	app := benchMuseum(b)
	const id = "painting000_000"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := app.Store().SetAttr(id, attr, value(i)); err != nil {
			b.Fatal(err)
		}
		if _, err := app.InvalidateDocument(navigation.NodeHref(id)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRenderPageMember weaves one member page of the synthetic
// museum anew, tree and bytes, as a page-cache miss does.
func BenchmarkRenderPageMember(b *testing.B) {
	app := benchMuseum(b)
	rc := app.Resolved().Contexts[0]
	node := rc.Members[0].ID()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := app.RenderPage(rc.Name, node); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRenderDuringSwaps weaves one member page of the synthetic
// museum with RenderPage from two goroutines while each iteration flips
// ByAuthor between an index and an indexed guided tour, and reports the
// readers' latency at p50 and p99: how long a weave waits on the
// rebuilds beside it.
func BenchmarkRenderDuringSwaps(b *testing.B) {
	app := benchMuseum(b)
	rc := app.Resolved().ContextsOf("ByAuthor")[0]
	node := rc.Members[0].ID()
	swaps := []navigation.AccessStructure{navigation.Index{}, navigation.IndexedGuidedTour{}}
	stop := make(chan struct{})
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		all []time.Duration
	)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var own []time.Duration
			defer func() {
				mu.Lock()
				all = append(all, own...)
				mu.Unlock()
			}()
			for {
				select {
				case <-stop:
					return
				default:
				}
				start := time.Now()
				if _, err := app.RenderPage(rc.Name, node); err != nil {
					b.Error(err)
					return
				}
				own = append(own, time.Since(start))
			}
		}()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := app.SetAccessStructure("ByAuthor", swaps[i%2]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
	if len(all) == 0 {
		return
	}
	slices.Sort(all)
	at := func(q float64) float64 { return float64(all[int(q*float64(len(all)-1))].Microseconds()) }
	b.ReportMetric(at(0.50), "read-p50-us")
	b.ReportMetric(at(0.99), "read-p99-us")
}
