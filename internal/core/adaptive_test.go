package core

import (
	"strings"
	"testing"

	"repro/internal/navigation"
)

// adaptiveTour is the derived structure the analytics subsystem would
// compile for the picasso context: visitors enter at guernica, walk the
// year order backwards, and concentrate on guitar.
func adaptiveTour() *navigation.AdaptiveTour {
	return &navigation.AdaptiveTour{Plans: map[string]navigation.TourPlan{
		"ByAuthor:picasso": {
			Order:     []string{"guernica", "guitar", "avignon"},
			Landmarks: []string{"guitar"},
		},
	}}
}

// TestAdaptiveSwapWeavesDerivedStructure: swapping a family to a
// derived adaptive tour re-weaves its pages with the learned order and
// the promoted landmark, while the untouched family's cached pages
// survive — the dependency-aware invalidation the adaptation loop
// leans on.
func TestAdaptiveSwapWeavesDerivedStructure(t *testing.T) {
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
	warm("ByAuthor:picasso", "guernica")

	if _, err := app.SetAccessStructures(map[string]navigation.AccessStructure{
		"ByAuthor": adaptiveTour(),
	}); err != nil {
		t.Fatal(err)
	}

	// Untouched family: same cached page object, no re-weave.
	if again := warm("ByMovement:cubism", "guitar"); again != cubism {
		t.Error("ByMovement page re-woven by a ByAuthor-only adaptation")
	}
	if n := wc.count("ByMovement:cubism", "guitar"); n != 1 {
		t.Errorf("ByMovement weaves = %d, want 1", n)
	}

	// The derived tour is live: guernica now opens the tour (no Prev,
	// Next goes to guitar) and carries a promoted-landmark link.
	page := warm("ByAuthor:picasso", "guernica")
	if !strings.Contains(page.HTML(), `class="nav-next"`) ||
		!strings.Contains(page.HTML(), "/ByAuthor/picasso/guitar.html") {
		t.Errorf("derived page lacks the learned Next edge:\n%s", page.HTML())
	}
	if strings.Contains(page.HTML(), `class="nav-prev"`) {
		t.Error("tour entry page has a Prev link; derived order should start at guernica")
	}
	if !strings.Contains(page.HTML(), `class="nav-hot"`) {
		t.Errorf("derived page lacks the promoted-landmark link:\n%s", page.HTML())
	}
	// The hub lists members in derived, not authored, order.
	hub := warm("ByAuthor:picasso", navigation.HubID)
	if g, a := strings.Index(hub.HTML(), "guernica"), strings.Index(hub.HTML(), "avignon"); g < 0 || a < 0 || g > a {
		t.Errorf("hub roll not in derived order (guernica@%d avignon@%d):\n%s", g, a, hub.HTML())
	}
}

// TestSetAccessStructuresValidatesBeforeMutating: one unknown family
// fails the whole batch and leaves every structure untouched.
func TestSetAccessStructuresValidatesBeforeMutating(t *testing.T) {
	app := paperApp(t, navigation.Index{})
	_, err := app.SetAccessStructures(map[string]navigation.AccessStructure{
		"ByAuthor": navigation.IndexedGuidedTour{},
		"Nope":     navigation.Menu{},
	})
	if err == nil || !strings.Contains(err.Error(), "Nope") {
		t.Fatalf("err = %v, want unknown family error", err)
	}
	if kind := app.Resolved().Context("ByAuthor:picasso").Def.Access.Kind(); kind != "index" {
		t.Errorf("ByAuthor access = %q after failed batch, want untouched index", kind)
	}
	if _, err := app.SetAccessStructures(nil); err != nil {
		t.Errorf("empty batch = %v, want no-op", err)
	}
}

// TestSetAccessStructuresBatch swaps both families with one rebuild.
func TestSetAccessStructuresBatch(t *testing.T) {
	app := paperApp(t, navigation.Index{})
	if _, err := app.SetAccessStructures(map[string]navigation.AccessStructure{
		"ByAuthor":   navigation.IndexedGuidedTour{},
		"ByMovement": navigation.Menu{},
	}); err != nil {
		t.Fatal(err)
	}
	if kind := app.Resolved().Context("ByAuthor:picasso").Def.Access.Kind(); kind != "indexed-guided-tour" {
		t.Errorf("ByAuthor = %q", kind)
	}
	if kind := app.Resolved().Context("ByMovement:cubism").Def.Access.Kind(); kind != "menu" {
		t.Errorf("ByMovement = %q", kind)
	}
}
