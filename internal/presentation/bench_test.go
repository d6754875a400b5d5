package presentation_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/museum"
	"repro/internal/navigation"
	"repro/internal/presentation"
)

// htmlSink keeps the benchmarked call's result alive.
var htmlSink string

// BenchmarkWriteHTML writes one woven member page of the 50/20/8
// synthetic museum as indented HTML, the last step of every weave.
func BenchmarkWriteHTML(b *testing.B) {
	store := museum.Synthetic(museum.SyntheticSpec{Painters: 50, PaintingsPerPainter: 20, Movements: 8, Seed: 1})
	app, err := core.NewApp(store, museum.Model(navigation.IndexedGuidedTour{}))
	if err != nil {
		b.Fatal(err)
	}
	rc := app.Resolved().Contexts[0]
	page, err := app.RenderPage(rc.Name, rc.Members[0].ID())
	if err != nil {
		b.Fatal(err)
	}
	root := page.Doc.Root()
	opts := presentation.HTMLOptions{Doctype: true, Indent: "  "}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		htmlSink = presentation.WriteHTML(root, opts)
	}
}
