package core

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/aspect"
	"repro/internal/navigation"
)

// weaveCounter counts page weaves per (context, node) through an around
// advice on the render join point, so tests can assert which pages a
// mutation actually re-wove.
type weaveCounter struct {
	mu     sync.Mutex
	counts map[string]int
}

func newWeaveCounter(app *App) *weaveCounter {
	wc := &weaveCounter{counts: map[string]int{}}
	a := aspect.NewAspect("weave-counter")
	pc := aspect.MustCompilePointcut("kind(page.render)")
	a.AroundAdvice("count", pc, 0, func(inv *aspect.Invocation) (any, error) {
		wc.mu.Lock()
		wc.counts[inv.JP.Attr("context")+"/"+inv.JP.Name]++
		wc.mu.Unlock()
		return inv.Proceed()
	})
	app.Weaver().Use(a)
	return wc
}

func (wc *weaveCounter) count(contextName, nodeID string) int {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	return wc.counts[contextName+"/"+nodeID]
}

// TestInvalidationSparesOtherFamilies is the acceptance scenario of the
// dependency-aware cache: after SetAccessStructure on one context
// family, cached pages of the other families are served without
// re-weaving (the weave counter stays put), while the mutated family's
// pages are re-woven with the new structure.
func TestInvalidationSparesOtherFamilies(t *testing.T) {
	app := paperApp(t, navigation.Index{})
	wc := newWeaveCounter(app)

	warm := func(ctx, node string) *Page {
		t.Helper()
		p, err := app.RenderPageCached(ctx, node)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cubismGuitar := warm("ByMovement:cubism", "guitar")
	warm("ByMovement:surrealism", "memory")
	warm("ByAuthor:picasso", "guitar")
	if n := wc.count("ByMovement:cubism", "guitar"); n != 1 {
		t.Fatalf("warmup weaves = %d, want 1", n)
	}

	if err := app.SetAccessStructure("ByAuthor", navigation.IndexedGuidedTour{}); err != nil {
		t.Fatal(err)
	}

	// Untouched family: served from cache, the very same page object,
	// zero additional weaves.
	again := warm("ByMovement:cubism", "guitar")
	if again != cubismGuitar {
		t.Error("ByMovement page re-woven after a ByAuthor-only mutation")
	}
	if n := wc.count("ByMovement:cubism", "guitar"); n != 1 {
		t.Errorf("ByMovement weaves after ByAuthor mutation = %d, want 1", n)
	}
	if n := wc.count("ByMovement:surrealism", "memory"); n != 1 {
		t.Errorf("surrealism weaves after ByAuthor mutation = %d, want 1", n)
	}

	// Mutated family: re-woven, with the new structure's markup.
	after := warm("ByAuthor:picasso", "guitar")
	if !strings.Contains(after.HTML(), "nav-next") {
		t.Error("re-woven ByAuthor page lacks the IGT Next link")
	}
	if n := wc.count("ByAuthor:picasso", "guitar"); n != 2 {
		t.Errorf("ByAuthor weaves = %d, want 2 (warmup + post-mutation)", n)
	}
}

// TestSetStylesheetSparesHubPages: only member pages are woven through
// the stylesheet slot, so installing one drops them but leaves hub
// shells cached.
// TestHubSwapSparesOtherFamilies: a swap that changes hub-ness (an
// indexed guided tour becoming a pure guided tour) is still a
// family-local mutation — hub pages render only inside their own
// context, so other families keep their cached pages. The control
// plane's PUT relies on this: swapping one family must rotate only
// that family's ETags even when the index page disappears.
func TestHubSwapSparesOtherFamilies(t *testing.T) {
	app := paperApp(t, navigation.IndexedGuidedTour{})
	wc := newWeaveCounter(app)

	warm := func(ctx, node string) *Page {
		t.Helper()
		p, err := app.RenderPageCached(ctx, node)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cubism := warm("ByMovement:cubism", "guitar")
	warm("ByAuthor:picasso", navigation.HubID)
	warm("ByAuthor:picasso", "guitar")

	if err := app.SetAccessStructure("ByAuthor", navigation.GuidedTour{}); err != nil {
		t.Fatal(err)
	}

	// Untouched family: same cached page object, no re-weave.
	if again := warm("ByMovement:cubism", "guitar"); again != cubism {
		t.Error("ByMovement page re-woven by a hub-dropping ByAuthor swap")
	}
	if n := wc.count("ByMovement:cubism", "guitar"); n != 1 {
		t.Errorf("ByMovement weaves = %d, want 1", n)
	}
	// The mutated family re-weaves without the hub: no Up link, and the
	// index page is gone.
	page := warm("ByAuthor:picasso", "guitar")
	if strings.Contains(page.HTML(), `class="nav-up"`) {
		t.Errorf("guided-tour page still has an Up link:\n%s", page.HTML())
	}
	if _, err := app.RenderPageCached("ByAuthor:picasso", navigation.HubID); err == nil {
		t.Error("hub page still renders after the structure lost it")
	}
}

func TestSetStylesheetSparesHubPages(t *testing.T) {
	app := paperApp(t, navigation.Index{})
	wc := newWeaveCounter(app)
	hub, err := app.RenderPageCached("ByAuthor:picasso", navigation.HubID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.RenderPageCached("ByAuthor:picasso", "guitar"); err != nil {
		t.Fatal(err)
	}

	app.SetStylesheet(nil) // even a no-op install must re-weave member pages

	if app.CachedPages() != 1 {
		t.Errorf("cached pages after SetStylesheet = %d, want 1 (the hub)", app.CachedPages())
	}
	hubAgain, err := app.RenderPageCached("ByAuthor:picasso", navigation.HubID)
	if err != nil {
		t.Fatal(err)
	}
	if hubAgain != hub {
		t.Error("hub page re-woven by a stylesheet change it does not depend on")
	}
	if n := wc.count("ByAuthor:picasso", navigation.HubID); n != 1 {
		t.Errorf("hub weaves = %d, want 1", n)
	}
	if _, err := app.RenderPageCached("ByAuthor:picasso", "guitar"); err != nil {
		t.Fatal(err)
	}
	if n := wc.count("ByAuthor:picasso", "guitar"); n != 2 {
		t.Errorf("member weaves = %d, want 2 (dropped by the stylesheet install)", n)
	}
}

// TestInvalidateDocumentDropsOnlyDependents: a content edit to one data
// document re-weaves exactly the pages woven from it — in every context
// containing the node — and no others.
func TestInvalidateDocumentDropsOnlyDependents(t *testing.T) {
	app := paperApp(t, navigation.IndexedGuidedTour{})
	warm := func(ctx, node string) *Page {
		t.Helper()
		p, err := app.RenderPageCached(ctx, node)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	warm("ByAuthor:picasso", "guitar")
	warm("ByMovement:cubism", "guitar")
	memory := warm("ByMovement:surrealism", "memory")

	if err := app.Store().SetAttr("guitar", "technique", "Sheet metal and wire"); err != nil {
		t.Fatal(err)
	}
	if dropped, err := app.InvalidateDocument("guitar.xml"); err != nil || dropped != 2 {
		t.Errorf("InvalidateDocument = (%d, %v), want (2, nil) — guitar's page in each containing context", dropped, err)
	}
	if app.CachedPages() != 1 {
		t.Errorf("cached pages = %d, want 1 (memory untouched)", app.CachedPages())
	}
	if again := warm("ByMovement:surrealism", "memory"); again != memory {
		t.Error("memory page re-woven by an edit to guitar.xml")
	}
	after := warm("ByAuthor:picasso", "guitar")
	if !strings.Contains(after.HTML(), "Sheet metal and wire") {
		t.Error("re-woven page does not show the edited attribute")
	}

	// Re-invalidating without a content change is free: same bytes,
	// nothing dropped.
	if dropped, err := app.InvalidateDocument("guitar.xml"); err != nil || dropped != 0 {
		t.Errorf("no-op invalidation = (%d, %v), want (0, nil)", dropped, err)
	}

	// An unknown document is an error.
	if _, err := app.InvalidateDocument("nonesuch.xml"); err == nil {
		t.Error("InvalidateDocument accepted an unknown document")
	}
}

// TestInvalidateDocumentTitleEditReachesNavigation: a title is not
// caption-only — anchors on other pages and the linkbase display it —
// so editing one must invalidate wide, not just the node's own pages.
func TestInvalidateDocumentTitleEditReachesNavigation(t *testing.T) {
	app := paperApp(t, navigation.IndexedGuidedTour{})
	hub, err := app.RenderPageCached("ByAuthor:picasso", navigation.HubID)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(hub.HTML(), ">Guitar<") {
		t.Fatalf("hub page does not anchor Guitar:\n%s", hub.HTML())
	}
	_, linksBefore, _, err := app.DocBytes("links.xml")
	if err != nil {
		t.Fatal(err)
	}

	if err := app.Store().SetAttr("guitar", "title", "Guitar (1913)"); err != nil {
		t.Fatal(err)
	}
	if _, err := app.InvalidateDocument("guitar.xml"); err != nil {
		t.Fatal(err)
	}

	if app.CachedPages() != 0 {
		t.Errorf("cached pages = %d, want 0 (a title edit reaches every anchor)", app.CachedPages())
	}
	hubAfter, err := app.RenderPageCached("ByAuthor:picasso", navigation.HubID)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(hubAfter.HTML(), "Guitar (1913)") {
		t.Error("hub anchor still shows the old title")
	}
	_, linksAfter, _, err := app.DocBytes("links.xml")
	if err != nil {
		t.Fatal(err)
	}
	if linksAfter == linksBefore {
		t.Error("links.xml validator unchanged though locator titles changed")
	}
}

// TestSetAttrDuringRenderRace: a live content edit (Store.SetAttr) may
// land while a weave is reading the same instance's attributes; the
// instance guards its map so neither side corrupts the other. Run with
// -race.
func TestSetAttrDuringRenderRace(t *testing.T) {
	app := paperApp(t, navigation.IndexedGuidedTour{})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// RenderPage (uncached) forces a weave that reads guitar's
			// attributes on every call.
			if _, err := app.RenderPage("ByAuthor:picasso", "guitar"); err != nil {
				t.Errorf("RenderPage: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		if err := app.Store().SetAttr("guitar", "technique", "edit"); err != nil {
			t.Fatal(err)
		}
		if _, err := app.InvalidateDocument("guitar.xml"); err != nil {
			t.Fatal(err)
		}
		if err := app.Store().SetAttr("guitar", "technique", "Construction"); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestInvalidationRace hammers cached reads on one context family while
// another family's access structure is swapped repeatedly. Untouched
// pages must stay cached (no re-weave beyond warmup) and the mutated
// family must never serve stale markup once the final swap completes.
// Run with -race.
func TestInvalidationRace(t *testing.T) {
	app := paperApp(t, navigation.Index{})
	wc := newWeaveCounter(app)
	if _, err := app.RenderPageCached("ByMovement:cubism", "guitar"); err != nil {
		t.Fatal(err)
	}
	if _, err := app.RenderPageCached("ByMovement:surrealism", "memory"); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pairs := [][2]string{
				{"ByMovement:cubism", "guitar"},
				{"ByMovement:surrealism", "memory"},
				{"ByAuthor:picasso", "guitar"},
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p := pairs[(g+i)%len(pairs)]
				if _, err := app.RenderPageCached(p[0], p[1]); err != nil {
					t.Errorf("RenderPageCached(%s,%s): %v", p[0], p[1], err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 20; i++ {
		var as navigation.AccessStructure = navigation.IndexedGuidedTour{}
		if i%2 == 1 {
			as = navigation.Index{}
		}
		if err := app.SetAccessStructure("ByAuthor", as); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	// The warmed ByMovement pages were never dependent on the mutation:
	// twenty swaps later they still have their single warmup weave.
	if n := wc.count("ByMovement:cubism", "guitar"); n != 1 {
		t.Errorf("cubism/guitar weaves = %d, want 1 (page must stay cached)", n)
	}
	if n := wc.count("ByMovement:surrealism", "memory"); n != 1 {
		t.Errorf("surrealism/memory weaves = %d, want 1 (page must stay cached)", n)
	}
	// The final swap installed Index: stale IGT markup must be gone.
	page, err := app.RenderPageCached("ByAuthor:picasso", "guitar")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(page.HTML(), "nav-next") {
		t.Error("stale IGT page served after final swap back to Index")
	}
}
