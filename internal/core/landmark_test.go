package core

import (
	"strings"
	"testing"

	"repro/internal/museum"
	"repro/internal/navigation"
)

// landmarkModel declares the museum contexts plus an ungrouped
// AllPaintings landmark.
func landmarkModel(t *testing.T) *navigation.Model {
	t.Helper()
	m := museum.Model(navigation.IndexedGuidedTour{})
	m.MustAddContext(&navigation.ContextDef{
		Name: "AllPaintings", NodeClass: "PaintingNode",
		OrderBy: "title", Access: navigation.Index{},
	})
	m.MustAddLandmark("AllPaintings")
	return m
}

func TestLandmarkOnEveryPage(t *testing.T) {
	app, err := NewApp(museum.PaperStore(), landmarkModel(t))
	if err != nil {
		t.Fatal(err)
	}
	site, err := app.WeaveSite()
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range site.Paths() {
		html := site.Page(path).HTML()
		if !strings.Contains(html, `class="nav-landmark"`) {
			t.Errorf("%s missing landmark bar", path)
		}
		if !strings.Contains(html, `href="/AllPaintings/index.html"`) {
			t.Errorf("%s landmark href wrong", path)
		}
	}
}

func TestLandmarkValidation(t *testing.T) {
	m := museum.Model(navigation.Index{})
	if err := m.AddLandmark("Nowhere"); err == nil {
		t.Error("unknown landmark accepted")
	}
	// Grouped families cannot be landmarks.
	if err := m.AddLandmark("ByAuthor"); err == nil {
		t.Error("grouped landmark accepted")
	}
	m.MustAddContext(&navigation.ContextDef{
		Name: "All", NodeClass: "PaintingNode", Access: navigation.Index{},
	})
	if err := m.AddLandmark("All"); err != nil {
		t.Fatal(err)
	}
	if err := m.AddLandmark("All"); err == nil {
		t.Error("duplicate landmark accepted")
	}
	if got := m.Landmarks(); len(got) != 1 || got[0] != "All" {
		t.Errorf("Landmarks = %v", got)
	}
}

func TestLandmarkInSpecText(t *testing.T) {
	spec := navigation.SpecText(landmarkModel(t))
	if !strings.Contains(spec, "landmark AllPaintings") {
		t.Errorf("spec missing landmark:\n%s", spec)
	}
}

func TestHublessLandmarkEntry(t *testing.T) {
	m := museum.Model(navigation.Index{})
	m.MustAddContext(&navigation.ContextDef{
		Name: "Tour", NodeClass: "PaintingNode",
		OrderBy: "year", Access: navigation.GuidedTour{},
	})
	m.MustAddLandmark("Tour")
	app, err := NewApp(museum.PaperStore(), m)
	if err != nil {
		t.Fatal(err)
	}
	page, err := app.RenderPage("ByAuthor:picasso", "guitar")
	if err != nil {
		t.Fatal(err)
	}
	// A guided tour's entry is its first member, not a hub.
	if !strings.Contains(page.HTML(), `href="/Tour/avignon.html"`) {
		t.Errorf("hubless landmark entry wrong:\n%s", page.HTML())
	}
}
