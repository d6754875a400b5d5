package core

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/aspect"
	"repro/internal/museum"
	"repro/internal/navigation"
	"repro/internal/presentation"
)

func paperApp(t *testing.T, access navigation.AccessStructure) *App {
	t.Helper()
	app, err := NewApp(museum.PaperStore(), museum.Model(access))
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func TestWeaveSitePageInventory(t *testing.T) {
	app := paperApp(t, navigation.Index{})
	site, err := app.WeaveSite()
	if err != nil {
		t.Fatal(err)
	}
	// Contexts: ByAuthor:picasso(3), ByAuthor:dali(1), ByMovement:cubism(2),
	// ByMovement:surrealism(2) — members 8 + 4 hubs = 12 pages.
	if site.Len() != 12 {
		t.Fatalf("pages = %d, want 12: %v", site.Len(), site.Paths())
	}
	for _, want := range []string{
		"ByAuthor/picasso/index.html",
		"ByAuthor/picasso/guitar.html",
		"ByAuthor/dali/memory.html",
		"ByMovement/cubism/index.html",
		"ByMovement/surrealism/guernica.html",
	} {
		if site.Page(want) == nil {
			t.Errorf("missing page %s in %v", want, site.Paths())
		}
	}
	files := site.Files()
	if len(files) != 12 {
		t.Errorf("Files = %d entries", len(files))
	}
}

// TestFigure3IndexPage verifies the woven Guitar page under the Index
// access structure matches the shape of the paper's Figure 3: content plus
// an Index anchor, but no Next/Previous.
func TestFigure3IndexPage(t *testing.T) {
	app := paperApp(t, navigation.Index{})
	page, err := app.RenderPage("ByAuthor:picasso", "guitar")
	if err != nil {
		t.Fatal(err)
	}
	html := page.HTML
	for _, want := range []string{
		"<h1>Guitar</h1>",
		`class="nav-up"`,
		`href="/ByAuthor/picasso/index.html"`,
	} {
		if !strings.Contains(html, want) {
			t.Errorf("Figure 3 page missing %q:\n%s", want, html)
		}
	}
	for _, banned := range []string{"nav-next", "nav-prev"} {
		if strings.Contains(html, banned) {
			t.Errorf("Index page must not contain %q:\n%s", banned, html)
		}
	}
}

// TestFigure4IGTPage verifies the woven Guitar page under the Indexed
// Guided Tour gains exactly the Next and Previous anchors of Figure 4.
func TestFigure4IGTPage(t *testing.T) {
	app := paperApp(t, navigation.IndexedGuidedTour{})
	page, err := app.RenderPage("ByAuthor:picasso", "guitar")
	if err != nil {
		t.Fatal(err)
	}
	html := page.HTML
	for _, want := range []string{
		"<h1>Guitar</h1>",
		`class="nav-up"`,
		// Year order: avignon (1907) < guitar (1913) < guernica (1937).
		`class="nav-prev" href="/ByAuthor/picasso/avignon.html"`,
		`class="nav-next" href="/ByAuthor/picasso/guernica.html"`,
	} {
		if !strings.Contains(html, want) {
			t.Errorf("Figure 4 page missing %q:\n%s", want, html)
		}
	}
}

func TestHubPageListsMembers(t *testing.T) {
	app := paperApp(t, navigation.Index{})
	page, err := app.RenderPage("ByAuthor:picasso", navigation.HubID)
	if err != nil {
		t.Fatal(err)
	}
	html := page.HTML
	for _, want := range []string{
		"Index of ByAuthor:picasso",
		`href="/ByAuthor/picasso/guitar.html"`,
		">Guitar</a>",
		">Guernica</a>",
		">Les Demoiselles d'Avignon</a>",
	} {
		if !strings.Contains(html, want) {
			t.Errorf("hub page missing %q:\n%s", want, html)
		}
	}
	if page.Path != "ByAuthor/picasso/index.html" {
		t.Errorf("hub path = %s", page.Path)
	}
}

func TestContextSwitchLinks(t *testing.T) {
	app := paperApp(t, navigation.IndexedGuidedTour{})
	page, err := app.RenderPage("ByAuthor:picasso", "guernica")
	if err != nil {
		t.Fatal(err)
	}
	// Guernica is also in ByMovement:surrealism.
	if !strings.Contains(page.HTML, `href="/ByMovement/surrealism/guernica.html"`) {
		t.Errorf("context switch link missing:\n%s", page.HTML)
	}
	if strings.Contains(page.HTML, `href="/ByMovement/cubism/guernica.html"`) {
		t.Errorf("bogus context link (guernica is not cubist here):\n%s", page.HTML)
	}
}

// TestAccessStructureSwap is the paper's requirements change end to end:
// one SetAccessStructure call turns every page of the family from Figure 3
// into Figure 4.
func TestAccessStructureSwap(t *testing.T) {
	app := paperApp(t, navigation.Index{})
	before, err := app.RenderPage("ByAuthor:picasso", "guitar")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(before.HTML, "nav-next") {
		t.Fatal("index page already has Next")
	}
	if err := app.SetAccessStructure("ByAuthor", navigation.IndexedGuidedTour{}); err != nil {
		t.Fatal(err)
	}
	after, err := app.RenderPage("ByAuthor:picasso", "guitar")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(after.HTML, "nav-next") || !strings.Contains(after.HTML, "nav-prev") {
		t.Errorf("IGT page missing tour anchors:\n%s", after.HTML)
	}
	// The other family is untouched.
	cubism, err := app.RenderPage("ByMovement:cubism", "guitar")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(cubism.HTML, "nav-next") {
		t.Error("swap leaked into ByMovement family")
	}
	if err := app.SetAccessStructure("Ghost", navigation.Index{}); err == nil {
		t.Error("unknown family accepted")
	}
}

// TestSeparationBySubtraction removes the navigation aspect: the site
// still weaves, pages keep their content, and no navigation markup
// remains — the separation demonstrated the way the paper argues it.
func TestSeparationBySubtraction(t *testing.T) {
	app := paperApp(t, navigation.IndexedGuidedTour{})
	if !app.Weaver().Remove(AspectName) {
		t.Fatal("navigation aspect not registered")
	}
	page, err := app.RenderPage("ByAuthor:picasso", "guitar")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(page.HTML, "<h1>Guitar</h1>") {
		t.Errorf("content lost without navigation aspect:\n%s", page.HTML)
	}
	for _, banned := range []string{"nav-up", "nav-next", "nav-prev", "class=\"navigation\""} {
		if strings.Contains(page.HTML, banned) {
			t.Errorf("navigation markup %q present without the aspect:\n%s", banned, page.HTML)
		}
	}
}

func TestCustomStylesheet(t *testing.T) {
	app := paperApp(t, navigation.Index{})
	ss, err := presentation.ParseStylesheetString(`<s:stylesheet xmlns:s="urn:repro:style">
	  <s:template match="Painting">
	    <html><head><title><s:value-of select="title"/></title></head>
	    <body><h2 class="custom"><s:value-of select="title"/> (<s:value-of select="year"/>)</h2></body></html>
	  </s:template>
	</s:stylesheet>`)
	if err != nil {
		t.Fatal(err)
	}
	app.SetStylesheet(ss)
	page, err := app.RenderPage("ByAuthor:picasso", "guitar")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(page.HTML, `<h2 class="custom">Guitar (1913)</h2>`) {
		t.Errorf("custom presentation not applied:\n%s", page.HTML)
	}
	// Navigation is still injected: presentation and navigation compose.
	if !strings.Contains(page.HTML, "nav-up") {
		t.Errorf("navigation lost under custom stylesheet:\n%s", page.HTML)
	}
	// A stylesheet that does not produce <html> errors.
	bad, _ := presentation.ParseStylesheetString(`<s:stylesheet xmlns:s="urn:repro:style">
	  <s:template match="Painting"><div/></s:template>
	</s:stylesheet>`)
	app.SetStylesheet(bad)
	if _, err := app.RenderPage("ByAuthor:picasso", "guitar"); err == nil {
		t.Error("non-html stylesheet output accepted")
	}
}

func TestRenderPageErrors(t *testing.T) {
	app := paperApp(t, navigation.Index{})
	if _, err := app.RenderPage("Nowhere", "guitar"); err == nil {
		t.Error("unknown context accepted")
	}
	if _, err := app.RenderPage("ByAuthor:picasso", "memory"); err == nil {
		t.Error("non-member node accepted")
	}
	// Guided tour has no hub page.
	tour := paperApp(t, navigation.GuidedTour{})
	if _, err := tour.RenderPage("ByAuthor:picasso", navigation.HubID); err == nil {
		t.Error("hub page of hubless structure accepted")
	}
}

func TestPagePath(t *testing.T) {
	tests := []struct {
		ctx, node, want string
	}{
		{"ByAuthor:picasso", "guitar", "ByAuthor/picasso/guitar.html"},
		{"ByAuthor:picasso", navigation.HubID, "ByAuthor/picasso/index.html"},
		{"ByAuthor:picasso", "", "ByAuthor/picasso/index.html"},
		{"AllPaintings", "guitar", "AllPaintings/guitar.html"},
	}
	for _, tt := range tests {
		if got := PagePath(tt.ctx, tt.node); got != tt.want {
			t.Errorf("PagePath(%q,%q) = %q, want %q", tt.ctx, tt.node, got, tt.want)
		}
	}
}

func TestLinkbaseRoundTripThroughApp(t *testing.T) {
	app := paperApp(t, navigation.IndexedGuidedTour{})
	lb := app.Linkbase()
	if lb == nil {
		t.Fatal("no linkbase")
	}
	out := lb.String()
	for _, want := range []string{"guitar.xml", "urn:repro:nav:next", "xlink"} {
		if !strings.Contains(out, want) {
			t.Errorf("linkbase missing %q", want)
		}
	}
	// The repository serves data docs and links.xml.
	repo := app.Repository()
	if _, err := repo.Get("links.xml"); err != nil {
		t.Error("links.xml not in repository")
	}
	if _, err := repo.Get("guitar.xml"); err != nil {
		t.Error("guitar.xml not in repository")
	}
	if app.Store() == nil || app.Model() == nil || app.Resolved() == nil {
		t.Error("accessors returned nil")
	}
}

// TestWeaveTrace reproduces E1: the weaver's trace shows base production
// advised by the navigation aspect at every page join point.
func TestWeaveTrace(t *testing.T) {
	app := paperApp(t, navigation.Index{})
	app.Weaver().EnableTrace()
	if _, err := app.WeaveSite(); err != nil {
		t.Fatal(err)
	}
	trace := app.Weaver().Trace()
	if len(trace) != 12 { // one around-advice execution per page
		t.Fatalf("trace = %d entries, want 12", len(trace))
	}
	for _, e := range trace {
		if e.Aspect != AspectName || e.When != aspect.Around {
			t.Errorf("unexpected trace entry %+v", e)
		}
	}
}

// TestAdditionalAspectComposes registers a second (auditing) aspect beside
// navigation and checks both advise the same join points.
func TestAdditionalAspectComposes(t *testing.T) {
	app := paperApp(t, navigation.Index{})
	// WeaveSite renders pages on parallel workers, so the advice runs
	// on several goroutines at once.
	var mu sync.Mutex
	var audited []string
	audit := aspect.NewAspect("audit")
	audit.AfterAdvice("log", aspect.MustCompilePointcut("kind(page.render)"), 10,
		func(jp *aspect.JoinPoint, _ any, err error) {
			if err == nil {
				mu.Lock()
				audited = append(audited, jp.Attr("context")+"/"+jp.Name)
				mu.Unlock()
			}
		})
	app.Weaver().Use(audit)
	site, err := app.WeaveSite()
	if err != nil {
		t.Fatal(err)
	}
	if len(audited) != site.Len() {
		t.Errorf("audited %d pages, site has %d", len(audited), site.Len())
	}
	// Navigation still present.
	if !strings.Contains(site.Page("ByAuthor/picasso/guitar.html").HTML, "nav-up") {
		t.Error("navigation lost when composing with audit aspect")
	}
}

func TestSiteWriteTo(t *testing.T) {
	app := paperApp(t, navigation.Index{})
	site, err := app.WeaveSite()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := site.WriteTo(dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "ByAuthor", "picasso", "guitar.html"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<h1>Guitar</h1>") {
		t.Error("written page content wrong")
	}
	if err := site.WriteTo("/proc/not/writable"); err == nil {
		t.Error("unwritable target accepted")
	}
}

// TestTwoModelsOneStore checks OOHDM's premise that several navigational
// models can view the same conceptual model: two apps over one store with
// different context families weave disjoint page sets without interfering.
func TestTwoModelsOneStore(t *testing.T) {
	store := museum.PaperStore()

	authorOnly := navigation.NewModel()
	authorOnly.MustAddNodeClass(&navigation.NodeClass{Name: "PaintingNode", Class: "Painting", TitleAttr: "title"})
	authorOnly.MustAddContext(&navigation.ContextDef{
		Name: "ByAuthor", NodeClass: "PaintingNode", GroupBy: "paints", OrderBy: "year",
		Access: navigation.Index{},
	})
	movementOnly := navigation.NewModel()
	movementOnly.MustAddNodeClass(&navigation.NodeClass{Name: "PaintingNode", Class: "Painting", TitleAttr: "title"})
	movementOnly.MustAddContext(&navigation.ContextDef{
		Name: "ByMovement", NodeClass: "PaintingNode", GroupBy: "includes", OrderBy: "title",
		Access: navigation.GuidedTour{},
	})

	appA, err := NewApp(store, authorOnly)
	if err != nil {
		t.Fatal(err)
	}
	appB, err := NewApp(store, movementOnly)
	if err != nil {
		t.Fatal(err)
	}
	siteA, err := appA.WeaveSite()
	if err != nil {
		t.Fatal(err)
	}
	siteB, err := appB.WeaveSite()
	if err != nil {
		t.Fatal(err)
	}
	if siteA.Len() != 6 { // 4 members + 2 hubs
		t.Errorf("author site = %d pages", siteA.Len())
	}
	if siteB.Len() != 4 { // 4 members, tours have no hubs
		t.Errorf("movement site = %d pages", siteB.Len())
	}
	for _, p := range siteA.Paths() {
		if strings.HasPrefix(p, "ByMovement") {
			t.Errorf("author model wove movement page %s", p)
		}
	}
	// The two linkbases are independent views of the same data.
	if appA.Linkbase().String() == appB.Linkbase().String() {
		t.Error("different models produced identical linkbases")
	}
}

func TestDeterministicWeave(t *testing.T) {
	a := paperApp(t, navigation.IndexedGuidedTour{})
	b := paperApp(t, navigation.IndexedGuidedTour{})
	siteA, err := a.WeaveSite()
	if err != nil {
		t.Fatal(err)
	}
	siteB, err := b.WeaveSite()
	if err != nil {
		t.Fatal(err)
	}
	if len(siteA.Paths()) != len(siteB.Paths()) {
		t.Fatal("page sets differ")
	}
	for _, p := range siteA.Paths() {
		if siteA.Page(p).HTML != siteB.Page(p).HTML {
			t.Errorf("page %s differs between identical weaves", p)
		}
	}
}

// TestInvalidateUnknownDocumentChangesNothing: a document the repository
// does not hold is rejected before anything is re-derived, so the cache
// generation, the mutation trace and the rebuild counters stay put.
func TestInvalidateUnknownDocumentChangesNothing(t *testing.T) {
	app := paperApp(t, navigation.IndexedGuidedTour{})
	rebuilds := func() (n uint64) {
		for _, c := range rebuildsByVerdict {
			n += c.Value()
		}
		return n
	}
	gen, events, counted := app.CacheGeneration(), app.Events().Total(), rebuilds()
	for _, uri := range []string{"nonesuch.xml", "guitar", "guitar.html", ""} {
		if _, err := app.InvalidateDocument(uri); err == nil {
			t.Errorf("InvalidateDocument(%q) accepted an unknown document", uri)
		}
	}
	if app.CacheGeneration() != gen || app.Events().Total() != events || rebuilds() != counted {
		t.Errorf("unknown documents moved the generation %d -> %d, events %d -> %d, rebuilds %d -> %d",
			gen, app.CacheGeneration(), events, app.Events().Total(), counted, rebuilds())
	}
	// links.xml is a document: invalidating it re-derives navigation.
	if _, err := app.InvalidateDocument("links.xml"); err != nil {
		t.Errorf("InvalidateDocument(links.xml): %v", err)
	}
	if rebuilds() != counted+1 {
		t.Errorf("invalidating links.xml counted %d rebuilds, want 1", rebuilds()-counted)
	}
}
