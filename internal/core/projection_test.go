package core

import (
	"slices"
	"testing"

	"repro/internal/museum"
	"repro/internal/navigation"
	"repro/internal/xmldom"
)

// TestMemberPageUnderProjectingNodeClass: a node class that projects
// its attributes and names no title attribute shows a member titled by
// its id, with exactly the projected attributes in name order, an
// attribute the instance lacks as empty, on its member page and where
// its hub embeds it.
func TestMemberPageUnderProjectingNodeClass(t *testing.T) {
	model := navigation.NewModel()
	model.MustAddNodeClass(&navigation.NodeClass{
		Name: "PaintingNode", Class: "Painting", AttrNames: []string{"year", "title", "medium"},
	})
	model.MustAddContext(&navigation.ContextDef{
		Name: "ByAuthor", NodeClass: "PaintingNode",
		GroupBy: "paints", OrderBy: "year",
		Access: navigation.IndexedGuidedTour{}, Show: "embed",
	})
	app, err := NewApp(museum.PaperStore(), model)
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]string{{"medium", ""}, {"title", "Guitar"}, {"year", "1913"}}

	page, err := app.RenderPage("ByAuthor:picasso", "guitar")
	if err != nil {
		t.Fatal(err)
	}
	html := page.Doc.Root()
	if got := html.FirstChildElement("head").FirstChildElement("title").StringValue(); got != "guitar" {
		t.Errorf("member page title %q, want the id %q", got, "guitar")
	}
	body := html.FirstChildElement("body")
	if got := body.FirstChildElement("h1").StringValue(); got != "guitar" {
		t.Errorf("member page h1 %q, want the id %q", got, "guitar")
	}
	var rows [][2]string
	for _, tr := range body.FirstChildElement("table").ChildElements() {
		tds := tr.ChildElements()
		if len(tds) != 2 {
			t.Fatalf("table row of %d cells, want 2", len(tds))
		}
		rows = append(rows, [2]string{tds[0].StringValue(), tds[1].StringValue()})
	}
	if !slices.Equal(rows, want) {
		t.Errorf("member page rows %q, want %q", rows, want)
	}

	hub, err := app.RenderPage("ByAuthor:picasso", navigation.HubID)
	if err != nil {
		t.Fatal(err)
	}
	embed := findElement(hub.Doc.Root(), func(e *xmldom.Element) bool {
		return e.AttrValue("class") == "embed" && e.AttrValue("data-node") == "guitar"
	})
	if embed == nil {
		t.Fatalf("hub embeds no guitar:\n%s", hub.HTML())
	}
	if got := embed.FirstChildElement("h2").StringValue(); got != "guitar" {
		t.Errorf("embed title %q, want the id %q", got, "guitar")
	}
	var pairs [][2]string
	dl := embed.FirstChildElement("dl").ChildElements()
	for i := 0; i+1 < len(dl); i += 2 {
		if dl[i].Name.Local != "dt" || dl[i+1].Name.Local != "dd" {
			t.Fatalf("embed list holds <%s><%s>, want <dt><dd>", dl[i].Name.Local, dl[i+1].Name.Local)
		}
		pairs = append(pairs, [2]string{dl[i].StringValue(), dl[i+1].StringValue()})
	}
	if len(dl)%2 != 0 || !slices.Equal(pairs, want) {
		t.Errorf("embed pairs %q, want %q", pairs, want)
	}
}

// findElement returns the first element under e, e included, in
// document order that match accepts, or nil.
func findElement(e *xmldom.Element, match func(*xmldom.Element) bool) *xmldom.Element {
	if match(e) {
		return e
	}
	for _, c := range e.ChildElements() {
		if found := findElement(c, match); found != nil {
			return found
		}
	}
	return nil
}
