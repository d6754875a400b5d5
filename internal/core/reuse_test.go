package core

import (
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/museum"
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
// and resolves afresh exactly the contexts a mutation changed or that
// hold the instance an edit replaced.
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
	holding := map[string]bool{}
	for _, rc := range app.Resolved().ContextsContaining(painting) {
		holding[rc.Name] = true
	}
	if len(holding) != 2 {
		t.Fatalf("%s is in %d contexts, want 2", painting, len(holding))
	}

	for name, kept := range adopted(func() { patchDoc(t, app, painting, "technique", "Sheet metal") }) {
		if kept == holding[name] {
			t.Errorf("technique edit: %s adopted = %v, holds the node = %v", name, kept, holding[name])
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

	for name, kept := range adopted(func() { patchDoc(t, app, painting, "title", "Retitled") }) {
		if kept == holding[name] {
			t.Errorf("title edit: %s adopted = %v, holds the node = %v", name, kept, holding[name])
		}
	}
}

// TestCaptionEditTakesOverOtherContexts: a caption edit of one painting
// on the 50/20/8 museum resolves afresh only the contexts that hold it.
// Every other context is the same *ResolvedContext as before, every
// context keeps the linkbase context held for it, and links.xml is the
// same text, body and validator.
func TestCaptionEditTakesOverOtherContexts(t *testing.T) {
	app := benchMuseum(t)
	painting := app.Store().InstancesOf("Painting")[7].ID
	before := app.gen.Load()
	body, etag, _, err := app.DocBytes(linksURI)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.EditDocument(painting, map[string]string{"technique": "Sheet metal"}); err != nil {
		t.Fatal(err)
	}
	after := app.gen.Load()
	if after == before || len(after.resolved.Contexts) != len(before.resolved.Contexts) {
		t.Fatal("the edit published no generation, or one of another shape")
	}
	holding := 0
	for i, rc := range after.resolved.Contexts {
		holds := rc.Position(painting) >= 0
		if holds {
			holding++
		}
		if taken := rc == before.resolved.Contexts[i]; taken == holds {
			t.Errorf("%s: taken over = %v, holds %s = %v", rc.Name, taken, painting, holds)
		}
		if after.links.ordered[i] != before.links.ordered[i] {
			t.Errorf("%s: the linkbase context held for it was replaced", rc.Name)
		}
	}
	if holding != 2 {
		t.Fatalf("%s is in %d contexts, want 2", painting, holding)
	}
	if after.links != before.links {
		t.Error("a caption edit replaced the linkbase")
	}
	if again, againTag, _, _ := app.DocBytes(linksURI); &again[0] != &body[0] || againTag != etag {
		t.Error("a caption edit replaced links.xml's body or validator")
	}
}

// TestStructureSwapSharesMembers: a ByAuthor swap on the 50/20/8 museum
// takes over every ByMovement context, and every ByAuthor context keeps
// its predecessor's sorted members and symbols under its new access
// structure, deriving only its edges.
func TestStructureSwapSharesMembers(t *testing.T) {
	app := benchMuseum(t)
	before := app.Resolved()
	if err := app.SetAccessStructure("ByAuthor", navigation.Index{}); err != nil {
		t.Fatal(err)
	}
	after := app.Resolved()
	families := map[string]int{}
	for i, rc := range after.Contexts {
		was := before.Contexts[i]
		families[rc.Def.Name]++
		switch rc.Def.Name {
		case "ByMovement":
			if rc != was {
				t.Errorf("%s was resolved afresh", rc.Name)
			}
		case "ByAuthor":
			if rc == was || rc.Def.Access.Kind() != (navigation.Index{}).Kind() {
				t.Errorf("%s was taken over, or is not an index", rc.Name)
			}
			if len(rc.Members) == 0 || &rc.Members[0] != &was.Members[0] {
				t.Errorf("%s does not share its predecessor's members", rc.Name)
			}
		}
	}
	if families["ByAuthor"] != 50 || families["ByMovement"] != 8 {
		t.Fatalf("families %v, want 50 ByAuthor and 8 ByMovement contexts", families)
	}
}

// TestEditDroppedByFilterTakesOverContext: on the rebuild oracle's
// reshaping model, an edit of a painting that the Recent family's Where
// filter drops leaves its painter's Recent context the same object,
// while the painter's ByAuthor context, which holds the painting, is
// resolved afresh.
func TestEditDroppedByFilterTakesOverContext(t *testing.T) {
	store := museum.Synthetic(museum.SyntheticSpec{Painters: 6, PaintingsPerPainter: 2, Movements: 3, Seed: 3})
	m := museum.Model(navigation.IndexedGuidedTour{})
	m.MustAddContext(&navigation.ContextDef{
		Name: "Recent", NodeClass: "PaintingNode", GroupBy: "paints",
		OrderBy: "year", Where: "year >= 1960", Access: navigation.Index{}, Show: "embed",
	})
	app, err := NewApp(store, m)
	if err != nil {
		t.Fatal(err)
	}
	edited := 0
	for _, painter := range store.InstancesOf("Painter") {
		recent := app.Resolved().Context("Recent:" + painter.ID)
		if recent == nil {
			continue
		}
		for _, painting := range store.Related(painter.ID, "paints") {
			if recent.Position(painting.ID) >= 0 {
				continue
			}
			byAuthor := app.Resolved().Context("ByAuthor:" + painter.ID)
			if _, err := app.EditDocument(painting.ID, map[string]string{"technique": "Dropped"}); err != nil {
				t.Fatal(err)
			}
			if app.Resolved().Context(recent.Name) != recent {
				t.Errorf("editing %s, which %s drops, resolved it afresh", painting.ID, recent.Name)
			}
			if app.Resolved().Context(byAuthor.Name) == byAuthor {
				t.Errorf("editing %s took over %s, which holds it", painting.ID, byAuthor.Name)
			}
			edited++
		}
	}
	if edited == 0 {
		t.Fatal("no Recent context drops one of its painter's paintings")
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
	runtime.KeepAlive(app)
	t.Logf("%d superseded models retain %.0f KiB each", 3*rounds, perModel/1024)
	if !raceEnabled && perModel >= 256*1024 {
		t.Errorf("a superseded model retains %.0f KiB, want < 256", perModel/1024)
	}
}
