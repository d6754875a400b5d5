package core

import (
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/navigation"
)

// patchDoc edits one attribute of an instance and invalidates its
// document, as the control plane's PATCH does.
func patchDoc(t testing.TB, app *App, id, attr, value string) {
	t.Helper()
	if err := app.Store().SetAttrs(id, map[string]string{attr: value}); err != nil {
		t.Fatal(err)
	}
	if _, err := app.InvalidateDocument(navigation.NodeHref(id)); err != nil {
		t.Fatal(err)
	}
}

// TestRebuildAdoptsUnchangedContexts: a rebuild carries every context
// its comparison found unchanged over as the previous model's object,
// and resolves afresh exactly the contexts a mutation changed.
func TestRebuildAdoptsUnchangedContexts(t *testing.T) {
	app := benchMuseum(t)
	// adopted reports, per context name, whether the rebuild behind
	// mutate kept the previous model's object.
	adopted := func(mutate func()) map[string]bool {
		before := app.Resolved()
		mutate()
		after := app.Resolved()
		if len(after.Contexts) != len(before.Contexts) {
			t.Fatalf("the context list changed shape: %d -> %d", len(before.Contexts), len(after.Contexts))
		}
		out := map[string]bool{}
		for i, rc := range after.Contexts {
			out[rc.Name] = rc == before.Contexts[i]
			if after.Context(rc.Name) != rc {
				t.Fatalf("Context(%q) is not the object in Contexts", rc.Name)
			}
		}
		return out
	}
	painting := app.Store().InstancesOf("Painting")[7].ID

	for name, kept := range adopted(func() { patchDoc(t, app, painting, "technique", "Sheet metal") }) {
		if !kept {
			t.Errorf("technique edit: %s was resolved afresh", name)
		}
	}

	flip := adopted(func() {
		if err := app.SetAccessStructure("ByAuthor", navigation.Index{}); err != nil {
			t.Fatal(err)
		}
	})
	for name, kept := range flip {
		if byAuthor := strings.HasPrefix(name, "ByAuthor:"); kept == byAuthor {
			t.Errorf("ByAuthor flip: %s adopted = %v", name, kept)
		}
	}

	holding := map[string]bool{}
	for _, rc := range app.Resolved().ContextsContaining(painting) {
		holding[rc.Name] = true
	}
	if len(holding) != 2 {
		t.Fatalf("%s is in %d contexts, want 2", painting, len(holding))
	}
	for name, kept := range adopted(func() { patchDoc(t, app, painting, "title", "Retitled") }) {
		if kept == holding[name] {
			t.Errorf("title edit: %s adopted = %v, holds the node = %v", name, kept, holding[name])
		}
	}
}

// TestAdoptedIndexNeverKeepsStaleTitle: a context traversed between a
// content edit and the rebuild that follows it built its OutEdges index
// with the edit's titles. An edit that restores the title leaves the
// derived context unchanged, so the rebuild must not adopt the context
// whose index still carries the intermediate title.
func TestAdoptedIndexNeverKeepsStaleTitle(t *testing.T) {
	app := paperApp(t, navigation.IndexedGuidedTour{})
	if err := app.Store().SetAttrs("guitar", map[string]string{"title": "Interim"}); err != nil {
		t.Fatal(err)
	}
	// A visitor traverses the live model before the edit is invalidated.
	app.Resolved().Context("ByAuthor:picasso").OutEdges(navigation.HubID)
	patchDoc(t, app, "guitar", "title", "Guitar")

	fresh, err := app.Model().Resolve(app.Store())
	if err != nil {
		t.Fatal(err)
	}
	want := fresh.Context("ByAuthor:picasso").OutEdges(navigation.HubID)
	got := app.Resolved().Context("ByAuthor:picasso").OutEdges(navigation.HubID)
	if !slices.Equal(got, want) {
		t.Fatalf("hub edges after the title was restored:\n got %v\nwant %v", got, want)
	}
}

// TestAdoptionUnderConcurrentTraversal: visitors traverse the live
// model — building OutEdges indexes — while a writer retitles a painting
// in two steps, the edit and then its invalidation, and flips a
// structure, so rebuilds check indexes that readers are building. Once
// the writer stops, the live model traverses exactly as a fresh
// resolution.
func TestAdoptionUnderConcurrentTraversal(t *testing.T) {
	app := paperApp(t, navigation.IndexedGuidedTour{})
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, rc := range app.Resolved().Contexts {
					rc.OutEdges(rc.EntryNode())
				}
			}
		}()
	}
	structures := []navigation.AccessStructure{navigation.Index{}, navigation.IndexedGuidedTour{}}
	for i := 0; i < 200; i++ {
		patchDoc(t, app, "guitar", "title", []string{"Guitar", "Interim"}[i%2])
		if i%10 == 0 {
			if err := app.SetAccessStructure("ByMovement", structures[i/10%2]); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(done)
	wg.Wait()
	fresh, err := app.Model().Resolve(app.Store())
	if err != nil {
		t.Fatal(err)
	}
	(&rebuildOracle{t: t, app: app}).checkResolved("after concurrent traversal", fresh)
}

// heapAfterGC returns the live heap once garbage, pooled buffers
// included, has been collected.
func heapAfterGC() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestCachedPagesHoldOnlyBytes: a page held by the cache keeps its
// exact-size body and no tree. Warming every page of the 50/20/8 museum
// retains under 2 KiB per page (a member body averages about 0.9 KB).
func TestCachedPagesHoldOnlyBytes(t *testing.T) {
	app := benchMuseum(t)
	var keys []pageKey
	for _, rc := range app.Resolved().Contexts {
		if rc.Def.Access.HasHub() {
			keys = append(keys, pageKey{rc.Name, navigation.HubID})
		}
		for _, m := range rc.Members {
			keys = append(keys, pageKey{rc.Name, m.ID()})
		}
	}
	before := heapAfterGC()
	for _, k := range keys {
		if _, err := app.RenderPageCached(k.context, k.node); err != nil {
			t.Fatal(err)
		}
	}
	after := heapAfterGC()
	for _, p := range cachedPages(app) {
		if p.Doc != nil {
			t.Fatalf("cached page %s holds its tree", p.Path)
		}
		if cap(p.Body) != len(p.Body) {
			t.Fatalf("cached page %s: body cap %d, len %d", p.Path, cap(p.Body), len(p.Body))
		}
	}
	if n := app.CachedPages(); n != len(keys) {
		t.Fatalf("%d cached pages, want %d", n, len(keys))
	}
	perPage := (float64(after) - float64(before)) / float64(len(keys))
	t.Logf("%d pages retain %.0f B each", len(keys), perPage)
	if !raceEnabled && perPage >= 2048 {
		t.Errorf("a cached page retains %.0f B, want < 2048", perPage)
	}
}

// TestSupersededModelsShareContexts: models superseded by technique
// edits, title edits and ByAuthor structure flips, each kept alive with
// every context traversed (as idle sessions keep them), share every
// unchanged context with their successors: each retains under 256 KiB
// on the 50/20/8 museum.
func TestSupersededModelsShareContexts(t *testing.T) {
	app := benchMuseum(t)
	traverse := func(rm *navigation.ResolvedModel) {
		for _, rc := range rm.Contexts {
			rc.OutEdges(rc.EntryNode())
		}
	}
	paintings := app.Store().InstancesOf("Painting")
	var kept []*navigation.ResolvedModel
	traverse(app.Resolved())
	structures := []navigation.AccessStructure{navigation.Index{}, navigation.IndexedGuidedTour{}}
	const rounds = 8
	for i := 0; i < rounds; i++ {
		id := paintings[(i*131)%len(paintings)].ID
		kept = append(kept, app.Resolved())
		patchDoc(t, app, id, "technique", "Medium "+id)
		traverse(app.Resolved())
		kept = append(kept, app.Resolved())
		patchDoc(t, app, id, "title", "Work "+id)
		traverse(app.Resolved())
		kept = append(kept, app.Resolved())
		if err := app.SetAccessStructure("ByAuthor", structures[i%2]); err != nil {
			t.Fatal(err)
		}
		traverse(app.Resolved())
	}
	// What the superseded models hold alone: the heap with them, less
	// the heap once they are dropped (the live model stays either way).
	with := heapAfterGC()
	runtime.KeepAlive(kept)
	perModel := (float64(with) - float64(heapAfterGC())) / (3 * rounds)
	t.Logf("%d superseded models retain %.0f KiB each", 3*rounds, perModel/1024)
	if !raceEnabled && perModel >= 256*1024 {
		t.Errorf("a superseded model retains %.0f KiB, want < 256", perModel/1024)
	}
}
