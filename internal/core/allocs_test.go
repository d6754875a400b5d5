package core

import (
	"testing"

	"repro/internal/navigation"
)

// Allocation budgets for the //repro:hotpath functions this package
// exports to the serve path. A cache hit returns shared precomputed
// state — the page pointer, the document bytes with their ETag and
// Content-Length — so both lookups stay allocation-free; navlint's
// hotpath analyzer enforces the same statically.
func TestRenderPageCachedHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	app := paperApp(t, navigation.GuidedTour{})
	if _, err := app.RenderPageCached("ByAuthor:picasso", "guitar"); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := app.RenderPageCached("ByAuthor:picasso", "guitar"); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("cached render = %.2f allocs/op, want 0", avg)
	}
}

func TestDocBytesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	app := paperApp(t, navigation.Index{})
	if _, _, _, err := app.DocBytes("links.xml"); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, _, _, err := app.DocBytes("links.xml"); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("doc lookup = %.2f allocs/op, want 0", avg)
	}
}

// TestMutationAllocs: on the 50/20/8 museum a caption edit and a title
// edit each allocate fewer than 1,000 objects, and a ByAuthor structure
// swap fewer than 1,500: a mutation makes, sorts and derives only the
// contexts it changed, and writes only their extended links.
func TestMutationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	app := benchMuseum(t)
	const id = "painting000_000"
	edit := func(attr string, values ...string) func(int) error {
		return func(i int) error {
			_, err := app.EditDocument(id, map[string]string{attr: values[i%len(values)]})
			return err
		}
	}
	swaps := []navigation.AccessStructure{navigation.Index{}, navigation.IndexedGuidedTour{}}
	for _, tc := range []struct {
		name   string
		limit  float64
		mutate func(int) error
	}{
		{"caption edit", 1000, edit("technique", "Medium 0", "Medium 1")},
		{"title edit", 1000, edit("title", "Work 0 of Painter 0 (0)", "Work 0 of Painter 0 (1)")},
		{"ByAuthor swap", 1500, func(i int) error { return app.SetAccessStructure("ByAuthor", swaps[i%2]) }},
	} {
		i := 0
		avg := testing.AllocsPerRun(20, func() {
			if err := tc.mutate(i); err != nil {
				t.Fatal(err)
			}
			i++
		})
		t.Logf("%s: %.0f allocs", tc.name, avg)
		if avg >= tc.limit {
			t.Errorf("%s = %.0f allocs, want < %.0f", tc.name, avg, tc.limit)
		}
	}
}
