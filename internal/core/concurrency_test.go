package core

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/museum"
	"repro/internal/navigation"
)

// TestWeaveSiteParallelMatchesSequential checks the tentpole determinism
// contract: the parallel weave produces byte-identical pages to the
// sequential one, at every worker count.
func TestWeaveSiteParallelMatchesSequential(t *testing.T) {
	store := museum.Synthetic(museum.SyntheticSpec{
		Painters: 6, PaintingsPerPainter: 5, Movements: 3, Seed: 7,
	})
	app, err := NewApp(store, museum.Model(navigation.IndexedGuidedTour{}))
	if err != nil {
		t.Fatal(err)
	}
	seq, err := app.WeaveSiteWorkers(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		par, err := app.WeaveSiteWorkers(workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if par.Len() != seq.Len() {
			t.Fatalf("workers=%d: %d pages, want %d", workers, par.Len(), seq.Len())
		}
		for _, path := range seq.Paths() {
			sp, pp := seq.Page(path), par.Page(path)
			if pp == nil {
				t.Fatalf("workers=%d: missing page %s", workers, path)
			}
			if sp.HTML != pp.HTML {
				t.Errorf("workers=%d: page %s differs from sequential weave", workers, path)
			}
		}
	}
}

// TestConcurrentRenderPage hammers RenderPage and WeaveSite from many
// goroutines; run with -race to check the join-point pipeline's
// concurrency contract.
func TestConcurrentRenderPage(t *testing.T) {
	app := paperApp(t, navigation.IndexedGuidedTour{})
	pairs := [][2]string{
		{"ByAuthor:picasso", "guitar"},
		{"ByAuthor:picasso", "guernica"},
		{"ByAuthor:picasso", navigation.HubID},
		{"ByMovement:cubism", "avignon"},
		{"ByMovement:surrealism", "memory"},
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				p := pairs[(g+i)%len(pairs)]
				if _, err := app.RenderPage(p[0], p[1]); err != nil {
					t.Errorf("RenderPage(%s,%s): %v", p[0], p[1], err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if _, err := app.WeaveSite(); err != nil {
				t.Errorf("WeaveSite: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestRenderPageCached checks the cache serves hits and stays coherent.
func TestRenderPageCached(t *testing.T) {
	app := paperApp(t, navigation.IndexedGuidedTour{})
	first, err := app.RenderPageCached("ByAuthor:picasso", "guitar")
	if err != nil {
		t.Fatal(err)
	}
	if app.CachedPages() != 1 {
		t.Errorf("cached pages = %d, want 1", app.CachedPages())
	}
	second, err := app.RenderPageCached("ByAuthor:picasso", "guitar")
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Error("second cached render returned a different page object")
	}
	fresh, err := app.RenderPage("ByAuthor:picasso", "guitar")
	if err != nil {
		t.Fatal(err)
	}
	if fresh.HTML != first.HTML {
		t.Error("cached page HTML differs from a fresh render")
	}
	// The empty node id normalizes to the hub, sharing one cache slot.
	if _, err := app.RenderPageCached("ByAuthor:picasso", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := app.RenderPageCached("ByAuthor:picasso", navigation.HubID); err != nil {
		t.Fatal(err)
	}
	if app.CachedPages() != 2 {
		t.Errorf("cached pages = %d, want 2 (member + hub)", app.CachedPages())
	}
}

// TestCachedRenderCoalescesMisses checks concurrent misses for the same
// page share one weave: every caller gets the same *Page object.
func TestCachedRenderCoalescesMisses(t *testing.T) {
	app := paperApp(t, navigation.IndexedGuidedTour{})
	const callers = 16
	pages := make([]*Page, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := app.RenderPageCached("ByAuthor:picasso", "guitar")
			if err != nil {
				t.Errorf("RenderPageCached: %v", err)
				return
			}
			pages[i] = p
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if pages[i] != pages[0] {
			t.Fatalf("caller %d got a different page object; misses not coalesced", i)
		}
	}
}

// TestCacheInvalidationOnSetAccessStructure asserts no stale page is
// served after the paper's requirements change: pages woven under Index
// must not survive the swap to IndexedGuidedTour.
func TestCacheInvalidationOnSetAccessStructure(t *testing.T) {
	app := paperApp(t, navigation.Index{})
	before, err := app.RenderPageCached("ByAuthor:picasso", "guitar")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(before.HTML, "nav-next") {
		t.Fatal("Index page should not carry Next links")
	}
	if err := app.SetAccessStructure("ByAuthor", navigation.IndexedGuidedTour{}); err != nil {
		t.Fatal(err)
	}
	if app.CachedPages() != 0 {
		t.Errorf("cache not invalidated: %d pages", app.CachedPages())
	}
	after, err := app.RenderPageCached("ByAuthor:picasso", "guitar")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(after.HTML, "nav-next") {
		t.Error("stale page served: IGT page lacks Next link after access-structure swap")
	}
}

// TestCacheInvalidationOnSetStylesheet asserts stylesheet installation
// also drops cached pages (nil restores built-in presentation).
func TestCacheInvalidationOnSetStylesheet(t *testing.T) {
	app := paperApp(t, navigation.Index{})
	if _, err := app.RenderPageCached("ByAuthor:picasso", "guitar"); err != nil {
		t.Fatal(err)
	}
	if app.CachedPages() == 0 {
		t.Fatal("expected a cached page")
	}
	app.SetStylesheet(nil)
	if app.CachedPages() != 0 {
		t.Errorf("cache not invalidated by SetStylesheet: %d pages", app.CachedPages())
	}
}

// TestConcurrentCachedRenderWithMutation races cached renders against
// access-structure swaps: every returned page must be consistent with
// either the old or the new structure, and once the swap completes no
// render may return the old markup. Run with -race.
func TestConcurrentCachedRenderWithMutation(t *testing.T) {
	app := paperApp(t, navigation.Index{})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := app.RenderPageCached("ByAuthor:picasso", "guitar"); err != nil {
					t.Errorf("RenderPageCached: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 10; i++ {
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

	// The last swap installed Index; the cache must never serve IGT.
	page, err := app.RenderPageCached("ByAuthor:picasso", "guitar")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(page.HTML, "nav-next") {
		t.Error("stale IGT page served after final swap back to Index")
	}
}

// TestLinkbaseSnapshotsSurviveMutations: Linkbase and Repository hand
// out copies, so a snapshot taken before a mutation keeps its bytes while
// the App swaps contexts into its own links.xml, and readers racing the
// mutations never see a tree mid-swap. Run with -race.
func TestLinkbaseSnapshotsSurviveMutations(t *testing.T) {
	app := paperApp(t, navigation.Index{})
	lb, repo := app.Linkbase(), app.Repository()
	links, guitar := lb.IndentedString(), repo["guitar.xml"].IndentedString()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := navigation.ParseLinkbase(app.Linkbase()); err != nil {
					t.Errorf("ParseLinkbase(Linkbase()): %v", err)
					return
				}
				if got := len(app.Repository()); got != app.DocumentCount() {
					t.Errorf("Repository() holds %d documents, DocumentCount() says %d", got, app.DocumentCount())
					return
				}
			}
		}()
	}
	for i := 0; i < 10; i++ {
		var as navigation.AccessStructure = navigation.IndexedGuidedTour{}
		if i%2 == 1 {
			as = navigation.Index{}
		}
		if err := app.SetAccessStructure("ByAuthor", as); err != nil {
			t.Fatal(err)
		}
		if err := app.Store().SetAttr("guitar", "title", "Guitar "+strings.Repeat("I", i+1)); err != nil {
			t.Fatal(err)
		}
		if _, err := app.InvalidateDocument("guitar.xml"); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if lb.IndentedString() != links || repo["guitar.xml"].IndentedString() != guitar {
		t.Error("a snapshot taken before the mutations changed under them")
	}
	if app.Linkbase().IndentedString() == links {
		t.Error("the mutations left links.xml as it was")
	}
}
