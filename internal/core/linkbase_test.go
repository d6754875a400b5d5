package core

import (
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/museum"
	"repro/internal/navigation"
)

// TestNewAppHoldsLinksXMLOnce: NewApp on the 50/20/8 museum retains
// under 7 MiB after GC (about 11 MB while a tree of links.xml stayed
// resident), and the doc cache serves the App's own links.xml body,
// at its exact size, rather than a second copy.
func TestNewAppHoldsLinksXMLOnce(t *testing.T) {
	store := museum.Synthetic(museum.SyntheticSpec{Painters: 50, PaintingsPerPainter: 20, Movements: 8, Seed: 1})
	model := museum.Model(navigation.IndexedGuidedTour{})
	before := heapAfterGC()
	app, err := NewApp(store, model)
	if err != nil {
		t.Fatal(err)
	}
	after := heapAfterGC()
	body, _, _, err := app.DocBytes(linksURI)
	if err != nil {
		t.Fatal(err)
	}
	if own := app.gen.Load().links.text.Bytes(); &body[0] != &own[0] || len(body) != len(own) {
		t.Fatal("the doc cache serves another copy of links.xml than the App holds")
	}
	if cap(body) != len(body) {
		t.Fatalf("links.xml body cap %d, len %d", cap(body), len(body))
	}
	retained := float64(after) - float64(before)
	t.Logf("NewApp retains %.2f MiB; links.xml is %d B", retained/(1<<20), len(body))
	if !raceEnabled && retained >= 7<<20 {
		t.Errorf("NewApp retains %.2f MiB, want < 7", retained/(1<<20))
	}
	runtime.KeepAlive(app)
}

// TestRelinkSharesNothingMutable: a rebuild that changes links.xml
// installs a new body and leaves the one it replaced, which responses
// in flight may still be writing, byte for byte as it was.
func TestRelinkSharesNothingMutable(t *testing.T) {
	app := benchMuseum(t)
	old, oldTag, _, err := app.DocBytes(linksURI)
	if err != nil {
		t.Fatal(err)
	}
	kept := slices.Clone(old)
	patchDoc(t, app, app.Store().InstancesOf("Painting")[3].ID, "title", "Spliced")
	cur, tag, _, _ := app.DocBytes(linksURI)
	if tag == oldTag || slices.Equal(cur, old) {
		t.Fatal("a title edit left links.xml as it was")
	}
	if !slices.Equal(old, kept) {
		t.Fatal("the rebuild edited the body it replaced")
	}
	// Nothing changed: the same body and validator stay.
	if _, err := app.InvalidateDocument(linksURI); err != nil {
		t.Fatal(err)
	}
	if again, againTag, _, _ := app.DocBytes(linksURI); &again[0] != &cur[0] || againTag != tag {
		t.Fatal("a rebuild that changed no context replaced links.xml")
	}
}

// TestOtherContextsMatchScan: every member page's "Also in" list, found
// by lookups in the parsed contexts' locator titles, is the one a scan
// of every context's member order finds, on both museums and after
// structure swaps.
func TestOtherContextsMatchScan(t *testing.T) {
	scan := func(app *App, current, nodeID string) []string {
		var out []string
		for name, lbc := range app.gen.Load().links.contexts {
			if name == current {
				continue
			}
			for _, id := range lbc.Order {
				if id == nodeID {
					out = append(out, name)
					break
				}
			}
		}
		sort.Strings(out)
		return out
	}
	paper, err := NewApp(museum.PaperStore(), museum.Model(navigation.Index{}))
	if err != nil {
		t.Fatal(err)
	}
	large := benchMuseum(t)
	for _, app := range []*App{paper, large} {
		for _, swap := range []navigation.AccessStructure{nil, navigation.GuidedTour{}, navigation.Menu{}} {
			if swap != nil {
				if err := app.SetAccessStructure("ByMovement", swap); err != nil {
					t.Fatal(err)
				}
			}
			listed := 0
			for _, rc := range app.Resolved().Contexts {
				for _, m := range rc.Members {
					got, want := app.gen.Load().otherContexts(rc.Name, m.ID()), scan(app, rc.Name, m.ID())
					if !slices.Equal(got, want) {
						t.Fatalf("%s/%s: also in %v, the scan finds %v", rc.Name, m.ID(), got, want)
					}
					listed += len(got)
				}
			}
			if listed == 0 {
				t.Fatal("no member page lists another context")
			}
		}
	}
}
