package xmldom_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/museum"
	"repro/internal/navigation"
	"repro/internal/xmldom"
)

// TestMuseumSerializesAsReference: every repository document and every
// woven page tree of the 50/20/8 synthetic museum serializes to the same
// bytes under the writer and the reference serializer, and the bytes the
// document cache serves are the reference's, so neither links.xml nor
// any data document changes across the writer's introduction.
func TestMuseumSerializesAsReference(t *testing.T) {
	store := museum.Synthetic(museum.SyntheticSpec{Painters: 50, PaintingsPerPainter: 20, Movements: 8, Seed: 1})
	app, err := core.NewApp(store, museum.Model(navigation.IndexedGuidedTour{}))
	if err != nil {
		t.Fatal(err)
	}
	same := func(what string, doc *xmldom.Document) {
		t.Helper()
		want := xmldom.ReferenceIndentedString(doc)
		if doc.IndentedString() != want {
			t.Fatalf("%s: IndentedString differs from the reference", what)
		}
		if doc.String() != xmldom.ReferenceString(doc) {
			t.Fatalf("%s: String differs from the reference", what)
		}
	}
	repo := app.Repository()
	for _, uri := range repo.URIs() {
		doc, _ := repo.Get(uri)
		same(uri, doc)
		served, _, _, err := app.DocBytes(uri)
		if err != nil || string(served) != xmldom.ReferenceIndentedString(doc) {
			t.Fatalf("%s: served bytes differ from the reference (%v)", uri, err)
		}
	}
	site, err := app.WeaveSite()
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range site.Paths() {
		same(path, site.Page(path).Doc)
	}
	if len(repo) != 1059 || site.Len() != 2058 {
		t.Errorf("compared %d documents and %d pages, want 1059 and 2058", len(repo), site.Len())
	}
}
