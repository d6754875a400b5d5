package navaspect_test

import (
	"strings"
	"testing"

	navaspect "repro"
)

// buildApp assembles a small gallery through the public facade only,
// exactly as a downstream user would.
func buildApp(t *testing.T, access navaspect.AccessStructure) *navaspect.App {
	t.Helper()
	schema := navaspect.NewSchema()
	schema.MustAddClass(navaspect.NewClass("Painter",
		navaspect.AttrDef{Name: "name", Type: navaspect.StringAttr, Required: true},
	))
	schema.MustAddClass(navaspect.NewClass("Painting",
		navaspect.AttrDef{Name: "title", Type: navaspect.StringAttr, Required: true},
		navaspect.AttrDef{Name: "year", Type: navaspect.IntAttr},
	))
	schema.MustAddRelationship(&navaspect.Relationship{
		Name: "paints", Source: "Painter", Target: "Painting", Card: navaspect.OneToMany,
	})
	store := navaspect.NewStore(schema)
	store.MustAdd("Painter", "picasso", map[string]string{"name": "Pablo Picasso"})
	store.MustAdd("Painting", "guitar", map[string]string{"title": "Guitar", "year": "1913"})
	store.MustAdd("Painting", "guernica", map[string]string{"title": "Guernica", "year": "1937"})
	store.MustLink("paints", "picasso", "guitar")
	store.MustLink("paints", "picasso", "guernica")

	model := navaspect.NewModel()
	model.MustAddNodeClass(&navaspect.NodeClass{Name: "PaintingNode", Class: "Painting", TitleAttr: "title"})
	model.MustAddContext(&navaspect.ContextDef{
		Name: "ByAuthor", NodeClass: "PaintingNode", GroupBy: "paints", OrderBy: "year", Access: access,
	})
	app, err := navaspect.New(store, model)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func TestFacadeEndToEnd(t *testing.T) {
	app := buildApp(t, navaspect.Index{})
	site, err := app.WeaveSite()
	if err != nil {
		t.Fatal(err)
	}
	if site.Len() != 3 { // hub + 2 paintings
		t.Fatalf("pages = %d: %v", site.Len(), site.Paths())
	}
	page := site.Page(navaspect.PagePath("ByAuthor:picasso", "guitar"))
	if page == nil {
		t.Fatal("guitar page missing")
	}
	if !strings.Contains(page.HTML(), "<h1>Guitar</h1>") || !strings.Contains(page.HTML(), "nav-up") {
		t.Errorf("page content:\n%s", page.HTML())
	}
}

func TestFacadeAccessSwap(t *testing.T) {
	app := buildApp(t, navaspect.Index{})
	if err := app.SetAccessStructure("ByAuthor", navaspect.IndexedGuidedTour{}); err != nil {
		t.Fatal(err)
	}
	page, err := app.RenderPage("ByAuthor:picasso", "guitar")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(page.HTML(), "nav-next") {
		t.Errorf("swap did not add tour anchors:\n%s", page.HTML())
	}
}

func TestFacadeSession(t *testing.T) {
	app := buildApp(t, navaspect.IndexedGuidedTour{})
	s := navaspect.NewSession(app.Resolved())
	if err := s.EnterContext("ByAuthor:picasso", "guitar"); err != nil {
		t.Fatal(err)
	}
	if err := s.Next(); err != nil {
		t.Fatal(err)
	}
	if s.Here().ID() != "guernica" {
		t.Errorf("Next landed on %v", s.Here())
	}
}

func TestFacadeLift(t *testing.T) {
	tangledSite := map[string]string{
		"Gallery/a.html": `<html><body><h1>A</h1><a href="index.html">Index</a></body></html>`,
		"Gallery/b.html": `<html><body><h1>B</h1><a href="index.html">Index</a></body></html>`,
		"Gallery/index.html": `<html><body><h1>Gallery</h1>` +
			`<ul><li><a href="a.html">A</a></li><li><a href="b.html">B</a></li></ul></body></html>`,
	}
	result, err := navaspect.LiftSite(tangledSite)
	if err != nil {
		t.Fatal(err)
	}
	if result.Stats.Contexts != 1 || len(result.Pages) != 2 {
		t.Errorf("lift stats = %+v, pages = %d", result.Stats, len(result.Pages))
	}
	if !strings.Contains(result.Linkbase.String(), "xlink") {
		t.Error("linkbase missing xlink markup")
	}
}

func TestFacadeStylesheet(t *testing.T) {
	app := buildApp(t, navaspect.Index{})
	ss, err := navaspect.ParseStylesheet(`<s:stylesheet xmlns:s="urn:repro:style">
	  <s:template match="Painting">
	    <html><head><title><s:value-of select="title"/></title></head>
	    <body><h1 id="styled"><s:value-of select="title"/></h1></body></html>
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
	if !strings.Contains(page.HTML(), `<h1 id="styled">Guitar</h1>`) {
		t.Errorf("stylesheet not applied:\n%s", page.HTML())
	}
}
