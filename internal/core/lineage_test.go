package core

import (
	"strconv"
	"testing"

	"repro/internal/museum"
	"repro/internal/navigation"
)

// TestRebuildsGrowNoTable: once a site's names are in its table, a
// hundred mixed rebuilds — structure swaps, title and caption edits,
// and year edits that move a painting in and out of a filtered context
// — intern nothing: each rebuild's names are ones the table has.
func TestRebuildsGrowNoTable(t *testing.T) {
	m := museum.Model(navigation.IndexedGuidedTour{})
	m.MustAddContext(&navigation.ContextDef{
		Name: "Modern", NodeClass: "PaintingNode", GroupBy: "paints",
		Where: "year >= 1930", Access: navigation.Index{},
	})
	app, err := NewApp(museum.PaperStore(), m)
	if err != nil {
		t.Fatal(err)
	}
	table := app.Resolved().Lineage()
	names := table.Len()
	structures := []navigation.AccessStructure{navigation.Index{}, navigation.GuidedTour{}, navigation.IndexedGuidedTour{}}
	flips := 0
	for i := 0; i < 100; i++ {
		switch i % 4 {
		case 0:
			if err := app.SetAccessStructure("ByAuthor", structures[i%3]); err != nil {
				t.Fatal(err)
			}
		case 1:
			patchDoc(t, app, "guitar", "title", "Guitar "+strconv.Itoa(i))
		case 2:
			patchDoc(t, app, "avignon", "technique", "Medium "+strconv.Itoa(i))
		case 3:
			// memory's year moves Modern:dali in and out of the model.
			had := app.Resolved().Context("Modern:dali") != nil
			patchDoc(t, app, "memory", "year", strconv.Itoa(1920+11*(i/4%2)))
			if had != (app.Resolved().Context("Modern:dali") != nil) {
				flips++
			}
		}
	}
	if flips == 0 {
		t.Fatal("Modern:dali never left or rejoined the model")
	}
	if table.Len() != names {
		t.Errorf("100 rebuilds grew the table from %d to %d names", names, table.Len())
	}
}
