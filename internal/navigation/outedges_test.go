package navigation_test

import (
	"slices"
	"testing"

	"repro/internal/conceptual"
	"repro/internal/museum"
	"repro/internal/navigation"
)

// linearOutEdges is OutEdges's slow twin: a scan of every edge of the
// context, in order.
func linearOutEdges(edges []navigation.Edge, from string) []navigation.Edge {
	var out []navigation.Edge
	for _, e := range edges {
		if e.From == from {
			out = append(out, e)
		}
	}
	return out
}

// TestOutEdgesMatchesLinearFilter: for every node (and the hub, and a
// node that is nowhere) of the paper museum and the 50/20/8 museum,
// under every access structure, the indexed OutEdges equals a linear
// filter of Edges, order included.
func TestOutEdgesMatchesLinearFilter(t *testing.T) {
	stores := map[string]*conceptual.Store{
		"paper":   museum.PaperStore(),
		"50/20/8": museum.Synthetic(museum.SyntheticSpec{Painters: 50, PaintingsPerPainter: 20, Movements: 8, Seed: 1}),
	}
	for name, store := range stores {
		for _, access := range []navigation.AccessStructure{
			navigation.Index{}, navigation.Menu{},
			navigation.GuidedTour{}, navigation.GuidedTour{Circular: true},
			navigation.IndexedGuidedTour{}, navigation.IndexedGuidedTour{Circular: true},
		} {
			rm, err := museum.Model(access).Resolve(store)
			if err != nil {
				t.Fatal(err)
			}
			for _, rc := range rm.Contexts {
				from := []string{navigation.HubID, "not-a-node"}
				for _, m := range rc.Members {
					from = append(from, m.ID())
				}
				edges := rc.Edges()
				for _, id := range from {
					if got, want := rc.OutEdges(id), linearOutEdges(edges, id); !slices.Equal(got, want) {
						t.Fatalf("%s %s %s: OutEdges(%q) = %v, want %v", name, access.Kind(), rc.Name, id, got, want)
					}
				}
			}
		}
	}
}

// TestNextLookupAllocatesNothing: a traversal finds its edge, and every
// step stores where it lands, without allocating — Next, Prev, Up,
// Select, Back, Forward and EnterContext take their symbols from the
// model and intern nothing. The trail and history appends still grow
// their slices now and then, well under once per step, which
// AllocsPerRun's integer average rounds away; a per-call edge slice or
// string would not.
func TestNextLookupAllocatesNothing(t *testing.T) {
	rm, err := museum.Model(navigation.IndexedGuidedTour{Circular: true}).Resolve(museum.PaperStore())
	if err != nil {
		t.Fatal(err)
	}
	s := navigation.NewSession(rm)
	s.SetTrailLimit(64)
	if err := s.EnterContext("ByAuthor:picasso", "avignon"); err != nil {
		t.Fatal(err)
	}
	both := func(a, b func() error) func() error {
		return func() error {
			if err := a(); err != nil {
				return err
			}
			return b()
		}
	}
	enter := func(context string) func() error {
		return func() error { return s.EnterContext(context, "guitar") }
	}
	for _, step := range []struct {
		name string
		fn   func() error
	}{
		{"Next", s.Next},
		{"Prev", s.Prev},
		{"Up, Select", both(s.Up, func() error { return s.Select("guitar") })},
		{"Back, Forward", both(s.Back, s.Forward)},
		{"EnterContext", both(enter("ByMovement:cubism"), enter("ByAuthor:picasso"))},
	} {
		if avg := testing.AllocsPerRun(1000, func() {
			if err := step.fn(); err != nil {
				t.Fatalf("%s: %v", step.name, err)
			}
		}); avg != 0 {
			t.Errorf("%s allocates %.0f per step, want 0", step.name, avg)
		}
	}
	rc := s.Context()
	if avg := testing.AllocsPerRun(1000, func() { _ = rc.OutEdges("guitar") }); avg != 0 {
		t.Errorf("OutEdges allocates %.0f per call, want 0", avg)
	}
}
