package conceptual

import (
	"strings"
	"testing"
)

// museumSchema builds the paper's domain: painters, paintings, movements.
func museumSchema(t *testing.T) *Schema {
	t.Helper()
	s := NewSchema()
	s.MustAddClass(NewClass("Painter",
		AttrDef{Name: "name", Type: StringAttr, Required: true},
		AttrDef{Name: "born", Type: IntAttr},
	))
	s.MustAddClass(NewClass("Painting",
		AttrDef{Name: "title", Type: StringAttr, Required: true},
		AttrDef{Name: "year", Type: IntAttr},
		AttrDef{Name: "technique", Type: StringAttr},
	))
	s.MustAddClass(NewClass("Movement",
		AttrDef{Name: "name", Type: StringAttr, Required: true},
	))
	s.MustAddRelationship(&Relationship{
		Name: "paints", Source: "Painter", Target: "Painting",
		Card: OneToMany, Inverse: "paintedBy",
	})
	s.MustAddRelationship(&Relationship{
		Name: "includes", Source: "Movement", Target: "Painting",
		Card: ManyToMany, Inverse: "belongsTo",
	})
	return s
}

func museumStore(t *testing.T) *Store {
	t.Helper()
	st := NewStore(museumSchema(t))
	st.MustAdd("Painter", "picasso", map[string]string{"name": "Pablo Picasso", "born": "1881"})
	st.MustAdd("Painting", "guitar", map[string]string{"title": "Guitar", "year": "1913"})
	st.MustAdd("Painting", "guernica", map[string]string{"title": "Guernica", "year": "1937"})
	st.MustAdd("Painting", "avignon", map[string]string{"title": "Les Demoiselles d'Avignon", "year": "1907"})
	st.MustAdd("Movement", "cubism", map[string]string{"name": "Cubism"})
	st.MustLink("paints", "picasso", "guitar")
	st.MustLink("paints", "picasso", "guernica")
	st.MustLink("paints", "picasso", "avignon")
	st.MustLink("includes", "cubism", "guitar")
	st.MustLink("includes", "cubism", "avignon")
	return st
}

func TestSchemaDefinition(t *testing.T) {
	s := museumSchema(t)
	if got := len(s.Classes()); got != 3 {
		t.Errorf("classes = %d, want 3", got)
	}
	if got := len(s.Relationships()); got != 2 {
		t.Errorf("relationships = %d, want 2", got)
	}
	painter := s.Class("Painter")
	if painter == nil {
		t.Fatal("Painter class missing")
	}
	if def, ok := painter.Attr("name"); !ok || !def.Required {
		t.Errorf("Painter.name = %+v, %v", def, ok)
	}
	if _, ok := painter.Attr("ghost"); ok {
		t.Error("unknown attribute reported present")
	}
	if s.Relationship("paints").Card != OneToMany {
		t.Errorf("paints cardinality = %v", s.Relationship("paints").Card)
	}
}

func TestSchemaErrors(t *testing.T) {
	s := NewSchema()
	if err := s.AddClass(NewClass("")); err == nil {
		t.Error("empty class name accepted")
	}
	s.MustAddClass(NewClass("A"))
	if err := s.AddClass(NewClass("A")); err == nil {
		t.Error("duplicate class accepted")
	}
	if err := s.AddRelationship(&Relationship{Name: "r", Source: "A", Target: "Nope"}); err == nil {
		t.Error("unknown target class accepted")
	}
	if err := s.AddRelationship(&Relationship{Name: "r", Source: "Nope", Target: "A"}); err == nil {
		t.Error("unknown source class accepted")
	}
	if err := s.AddRelationship(&Relationship{Name: "", Source: "A", Target: "A"}); err == nil {
		t.Error("empty relationship name accepted")
	}
	s.MustAddRelationship(&Relationship{Name: "r", Source: "A", Target: "A"})
	if err := s.AddRelationship(&Relationship{Name: "r", Source: "A", Target: "A"}); err == nil {
		t.Error("duplicate relationship accepted")
	}
	if err := s.AddRelationship(&Relationship{Name: "r2", Source: "A", Target: "A", Inverse: "r"}); err == nil {
		t.Error("inverse colliding with existing relationship accepted")
	}
	// Default cardinality is N:M.
	s.MustAddRelationship(&Relationship{Name: "r3", Source: "A", Target: "A"})
	if s.Relationship("r3").Card != ManyToMany {
		t.Errorf("default cardinality = %v", s.Relationship("r3").Card)
	}
}

func TestStoreAddAndQuery(t *testing.T) {
	st := museumStore(t)
	if st.Len() != 5 {
		t.Errorf("Len = %d, want 5", st.Len())
	}
	picasso := st.Get("picasso")
	if picasso == nil || picasso.Attr("name") != "Pablo Picasso" {
		t.Fatalf("picasso = %v", picasso)
	}
	if got := picasso.String(); !strings.Contains(got, "picasso") {
		t.Errorf("String = %q", got)
	}
	paintings := st.InstancesOf("Painting")
	if len(paintings) != 3 {
		t.Fatalf("paintings = %d", len(paintings))
	}
	// Insertion order is preserved.
	if paintings[0].ID != "guitar" || paintings[2].ID != "avignon" {
		t.Errorf("order = %v", paintings)
	}
	if v, ok := picasso.AttrOK("born"); !ok || v != "1881" {
		t.Errorf("born = %q, %v", v, ok)
	}
	if _, ok := picasso.AttrOK("died"); ok {
		t.Error("unset attribute reported present")
	}
	names := picasso.AttrNames()
	if len(names) != 2 || names[0] != "born" {
		t.Errorf("AttrNames = %v (want sorted)", names)
	}
}

func TestStoreAddErrors(t *testing.T) {
	st := NewStore(museumSchema(t))
	cases := []struct {
		class, id string
		attrs     map[string]string
	}{
		{"Ghost", "g1", nil},                                            // unknown class
		{"Painter", "", map[string]string{"name": "X"}},                 // missing id
		{"Painter", "p1", map[string]string{"ghost": "X"}},              // unknown attribute
		{"Painter", "p1", map[string]string{"name": "X", "born": "xx"}}, // bad int
		{"Painter", "p1", nil},                                          // missing required attr
	}
	for _, c := range cases {
		if _, err := st.Add(c.class, c.id, c.attrs); err == nil {
			t.Errorf("Add(%q,%q,%v) accepted", c.class, c.id, c.attrs)
		}
	}
	st.MustAdd("Painter", "p1", map[string]string{"name": "X"})
	if _, err := st.Add("Painter", "p1", map[string]string{"name": "Y"}); err == nil {
		t.Error("duplicate id accepted")
	}
}

func TestRelationshipTraversal(t *testing.T) {
	st := museumStore(t)
	works := st.Related("picasso", "paints")
	if len(works) != 3 {
		t.Fatalf("picasso paints %d, want 3", len(works))
	}
	if works[0].ID != "guitar" || works[1].ID != "guernica" || works[2].ID != "avignon" {
		t.Errorf("link order = %v", works)
	}
	back := st.RelatedReverse("guitar", "paints")
	if len(back) != 1 || back[0].ID != "picasso" {
		t.Errorf("guitar paintedBy = %v", back)
	}
	// Traverse by inverse name.
	inv, err := st.Traverse("guitar", "paintedBy")
	if err != nil || len(inv) != 1 || inv[0].ID != "picasso" {
		t.Errorf("Traverse(paintedBy) = %v, %v", inv, err)
	}
	fwd, err := st.Traverse("cubism", "includes")
	if err != nil || len(fwd) != 2 {
		t.Errorf("Traverse(includes) = %v, %v", fwd, err)
	}
	if _, err := st.Traverse("guitar", "ghostRel"); err == nil {
		t.Error("unknown relationship name accepted")
	}
	if st.LinkCount("paints") != 3 {
		t.Errorf("LinkCount = %d", st.LinkCount("paints"))
	}
}

func TestLinkValidation(t *testing.T) {
	st := museumStore(t)
	cases := []struct {
		rel, from, to string
	}{
		{"ghost", "picasso", "guitar"},   // unknown rel
		{"paints", "nobody", "guitar"},   // unknown source
		{"paints", "picasso", "nothing"}, // unknown target
		{"paints", "guitar", "guernica"}, // wrong source class
		{"paints", "picasso", "cubism"},  // wrong target class
		{"paints", "picasso", "guitar"},  // duplicate link
	}
	for _, c := range cases {
		if err := st.Link(c.rel, c.from, c.to); err == nil {
			t.Errorf("Link(%q,%q,%q) accepted", c.rel, c.from, c.to)
		}
	}
}

func TestCardinalityEnforcement(t *testing.T) {
	st := museumStore(t)
	// paints is 1:N — a painting cannot have two painters.
	st.MustAdd("Painter", "dali", map[string]string{"name": "Salvador Dali"})
	if err := st.Link("paints", "dali", "guitar"); err == nil {
		t.Error("1:N violation accepted (second painter for guitar)")
	}
	// N:M allows sharing.
	st.MustAdd("Movement", "surrealism", map[string]string{"name": "Surrealism"})
	if err := st.Link("includes", "surrealism", "guitar"); err != nil {
		t.Errorf("N:M share rejected: %v", err)
	}

	// 1:1 restricts both sides.
	s := NewSchema()
	s.MustAddClass(NewClass("A"))
	s.MustAddClass(NewClass("B"))
	s.MustAddRelationship(&Relationship{Name: "pairs", Source: "A", Target: "B", Card: OneToOne})
	one := NewStore(s)
	one.MustAdd("A", "a1", nil)
	one.MustAdd("A", "a2", nil)
	one.MustAdd("B", "b1", nil)
	one.MustAdd("B", "b2", nil)
	one.MustLink("pairs", "a1", "b1")
	if err := one.Link("pairs", "a1", "b2"); err == nil {
		t.Error("1:1 violation accepted (a1 to second target)")
	}
	if err := one.Link("pairs", "a2", "b1"); err == nil {
		t.Error("1:1 violation accepted (b1 from second source)")
	}
	// N:1: a source may link once.
	s2 := NewSchema()
	s2.MustAddClass(NewClass("A"))
	s2.MustAddClass(NewClass("B"))
	s2.MustAddRelationship(&Relationship{Name: "into", Source: "A", Target: "B", Card: ManyToOne})
	m1 := NewStore(s2)
	m1.MustAdd("A", "a1", nil)
	m1.MustAdd("B", "b1", nil)
	m1.MustAdd("B", "b2", nil)
	m1.MustLink("into", "a1", "b1")
	if err := m1.Link("into", "a1", "b2"); err == nil {
		t.Error("N:1 violation accepted")
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	st := museumStore(t)
	doc := ExportInstance(st.Get("picasso"))
	out := doc.String()
	// Shape of the paper's Figure 7: class root, id attr, attr children.
	if !strings.Contains(out, `<Painter id="picasso">`) {
		t.Errorf("export shape wrong: %s", out)
	}
	if !strings.Contains(out, "<name>Pablo Picasso</name>") {
		t.Errorf("attribute element missing: %s", out)
	}
	if strings.Contains(out, "guitar") {
		t.Errorf("export leaked link structure: %s", out)
	}

	// Round trip into a fresh store.
	st2 := NewStore(museumSchema(t))
	inst, err := ImportInstance(st2, doc)
	if err != nil {
		t.Fatal(err)
	}
	if inst.ID != "picasso" || inst.Attr("name") != "Pablo Picasso" || inst.Attr("born") != "1881" {
		t.Errorf("imported = %+v", inst)
	}
}

func TestExportAll(t *testing.T) {
	st := museumStore(t)
	docs := ExportAll(st)
	if len(docs) != 5 {
		t.Fatalf("exported %d docs, want 5", len(docs))
	}
	if _, ok := docs["guitar.xml"]; !ok {
		t.Error("guitar.xml missing")
	}
	if docs["guitar.xml"].BaseURI != "guitar.xml" {
		t.Errorf("BaseURI = %q", docs["guitar.xml"].BaseURI)
	}
}

func TestEnumStrings(t *testing.T) {
	if StringAttr.String() != "string" || IntAttr.String() != "int" || AttrType(0).String() != "unknown" {
		t.Error("AttrType.String values wrong")
	}
	cards := map[Cardinality]string{OneToOne: "1:1", OneToMany: "1:N", ManyToOne: "N:1", ManyToMany: "N:M", Cardinality(0): "unknown"}
	for c, want := range cards {
		if c.String() != want {
			t.Errorf("Cardinality(%d).String() = %q, want %q", c, c.String(), want)
		}
	}
}
