package core

import (
	"bytes"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/museum"
	"repro/internal/navigation"
	"repro/internal/storage"
)

// TestReadersDoNotWaitForRebuild: readers load the published generation
// and never take the writers' lock, so each of them returns while a
// mutation holds it, as a rebuild does.
func TestReadersDoNotWaitForRebuild(t *testing.T) {
	app := paperApp(t, navigation.IndexedGuidedTour{})
	app.writeMu.Lock()
	defer app.writeMu.Unlock()
	readers := map[string]func() error{
		"Resolved": func() error { app.Resolved(); return nil },
		"RenderPage": func() error {
			_, err := app.RenderPage("ByAuthor:picasso", "guitar")
			return err
		},
		"RenderPageCached": func() error {
			_, err := app.RenderPageCached("ByMovement:cubism", "guitar")
			return err
		},
		"DocBytes": func() error {
			_, _, _, err := app.DocBytes("guitar.xml")
			return err
		},
		"Linkbase":      func() error { app.Linkbase(); return nil },
		"Repository":    func() error { app.Repository(); return nil },
		"DocumentCount": func() error { app.DocumentCount(); return nil },
		"View":          func() error { app.View(); return nil },
		"SpecText":      func() error { app.SpecText(); return nil },
		"StylesheetXML": func() error { app.StylesheetXML(); return nil },
		"WeaveSite": func() error {
			_, err := app.WeaveSite()
			return err
		},
		"ExportSnapshot": func() error { return app.ExportSnapshot(storage.NewMem()) },
	}
	for name, read := range readers {
		done := make(chan error, 1)
		go func() { done <- read() }()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("%s: %v", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("%s waited for the writers' lock", name)
		}
	}
}

// TestPublishedModelNeverWritten: a structure swap publishes a copy of
// the model, and the model a caller held before it reads as it did.
func TestPublishedModelNeverWritten(t *testing.T) {
	app := paperApp(t, navigation.Index{})
	model := app.Model()
	spec := navigation.SpecText(model)
	if err := app.SetAccessStructure("ByAuthor", navigation.IndexedGuidedTour{}); err != nil {
		t.Fatal(err)
	}
	if app.Model() == model {
		t.Fatal("the swap published no new model")
	}
	if got := navigation.SpecText(model); got != spec {
		t.Errorf("the swap changed the model it replaced:\n%s\nwas\n%s", got, spec)
	}
	if navigation.SpecText(app.Model()) == spec {
		t.Error("the published model does not carry the swap")
	}
}

// woven is one page a reader wove, with the generation it read.
type woven struct {
	g    *generation
	page *Page
}

// TestReadersWeaveOneGeneration races readers against a writer applying
// the rebuild oracle's mix of mutations: structure swaps, caption, title
// and year edits, and stylesheet installs. Each reader loads a
// generation and weaves through it, directly and through its page
// cache. Every page, and every page any generation cached, must equal
// what a fresh NewApp over that generation's store, model and
// stylesheet renders, and carry an ETag naming that generation or an
// earlier one. Run with -race.
func TestReadersWeaveOneGeneration(t *testing.T) {
	steps := 120
	if testing.Short() {
		steps = 30
	}
	store := museum.Synthetic(museum.SyntheticSpec{Painters: 4, PaintingsPerPainter: 2, Movements: 2, Seed: 5})
	m := museum.Model(navigation.IndexedGuidedTour{})
	m.MustAddContext(&navigation.ContextDef{
		Name: "Recent", NodeClass: "PaintingNode", GroupBy: "paints",
		OrderBy: "year", Where: "year >= 1960", Access: navigation.Index{}, Show: "embed",
	})
	m.MustAddContext(&navigation.ContextDef{
		Name: "AllPaintings", NodeClass: "PaintingNode", OrderBy: "title", Access: navigation.GuidedTour{},
	})
	m.MustAddLandmark("AllPaintings")
	app, err := NewApp(store, m)
	if err != nil {
		t.Fatal(err)
	}
	// fresh holds, for every generation the writer published, a fresh
	// App built from it. A page reads only its generation's documents,
	// so the fresh App renders that generation however the store moves
	// on afterwards.
	fresh := map[*generation]*App{}
	record := func() {
		g := app.gen.Load()
		f, err := NewApp(app.Store(), g.model)
		if err != nil {
			t.Fatal(err)
		}
		if g.stylesheetSrc != "" {
			if err := f.SetStylesheetXML(g.stylesheetSrc); err != nil {
				t.Fatal(err)
			}
		}
		fresh[g] = f
	}
	record()

	stop := make(chan struct{})
	results := make([][]woven, 3)
	var wg sync.WaitGroup
	for r := range results {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				g := app.gen.Load()
				rc := g.resolved.Contexts[rng.Intn(len(g.resolved.Contexts))]
				node := rc.Members[rng.Intn(len(rc.Members))].ID()
				if rc.Def.Access.HasHub() && rng.Intn(3) == 0 {
					node = navigation.HubID
				}
				page, err := app.renderPage(g, rc.Name, node)
				if err != nil {
					t.Errorf("weaving %s/%s: %v", rc.Name, node, err)
					return
				}
				results[r] = append(results[r], woven{g, page})
				// The cached path loads the newest generation itself;
				// what it caches is checked below, generation by
				// generation.
				_, _ = app.RenderPageCached(rc.Name, node)
			}
		}(r)
	}
	o := &rebuildOracle{t: t, rng: rand.New(rand.NewSource(9)), app: app,
		families: []string{"ByAuthor", "ByMovement", "Recent", "AllPaintings"}}
	for i := 0; i < steps; i++ {
		o.mutate()
		record()
	}
	close(stop)
	wg.Wait()

	want := map[*generation]map[pageKey][]byte{}
	check := func(g *generation, p *Page, how string) {
		t.Helper()
		f := fresh[g]
		if f == nil {
			t.Fatalf("%s page %s/%s: generation %d was never published", how, p.Context, p.NodeID, g.num)
		}
		if want[g] == nil {
			want[g] = map[pageKey][]byte{}
		}
		k := pageKey{p.Context, p.NodeID}
		body, ok := want[g][k]
		if !ok {
			fp, err := f.RenderPage(p.Context, p.NodeID)
			if err != nil {
				t.Fatalf("%s page %s/%s of generation %d: fresh app: %v", how, p.Context, p.NodeID, g.num, err)
			}
			body = fp.Body
			want[g][k] = body
		}
		if !bytes.Equal(p.Body, body) {
			t.Fatalf("%s page %s/%s of generation %d:\n%s\nfresh app renders\n%s", how, p.Context, p.NodeID, g.num, p.Body, body)
		}
		if n := etagGeneration(t, p.ETag); n > g.num {
			t.Fatalf("%s page %s/%s of generation %d carries ETag %s", how, p.Context, p.NodeID, g.num, p.ETag)
		}
	}
	total := 0
	for _, rs := range results {
		for _, w := range rs {
			if n := etagGeneration(t, w.page.ETag); n != w.g.num {
				t.Fatalf("page %s/%s woven from generation %d carries ETag %s", w.page.Context, w.page.NodeID, w.g.num, w.page.ETag)
			}
			check(w.g, w.page, "woven")
		}
		total += len(rs)
	}
	cached := 0
	for g := range fresh {
		for i := range g.pages.shards {
			for _, p := range g.pages.shards[i].pages {
				check(g, p, "cached")
				cached++
			}
		}
	}
	if total == 0 || cached == 0 {
		t.Fatalf("readers wove %d pages and the generations cached %d", total, cached)
	}
	t.Logf("%d mutations, %d generations, %d pages woven, %d cached pages checked", steps, len(fresh), total, cached)
}

// etagGeneration returns the generation an ETag "g<generation>-<hash>"
// names.
func etagGeneration(t *testing.T, etag string) uint64 {
	t.Helper()
	num, _, ok := strings.Cut(strings.TrimPrefix(etag, `"g`), "-")
	n, err := strconv.ParseUint(num, 10, 64)
	if !ok || err != nil {
		t.Fatalf("malformed ETag %s", etag)
	}
	return n
}
