package navigation

import (
	"strings"
	"testing"
)

func TestCompileWhere(t *testing.T) {
	good := map[string]predicate{
		"year >= 1910":                {attr: "year", op: ">=", value: "1910"},
		"year<1910":                   {attr: "year", op: "<", value: "1910"},
		"technique = 'Oil on canvas'": {attr: "technique", op: "=", value: "Oil on canvas"},
		"title != ''":                 {attr: "title", op: "!=", value: ""},
		"name = unquoted":             {attr: "name", op: "=", value: "unquoted"},
	}
	for src, want := range good {
		p, err := compileWhere(src)
		if err != nil {
			t.Errorf("compileWhere(%q): %v", src, err)
			continue
		}
		if p.attr != want.attr || p.op != want.op || p.value != want.value {
			t.Errorf("compileWhere(%q) = %+v, want %+v", src, *p, want)
		}
	}
	if p, err := compileWhere("   "); err != nil || p != nil {
		t.Error("blank filter should compile to nil")
	}
	bad := []string{
		"no operator here",
		"= 1910",
		"year = 'unterminated",
		"a b = c",
	}
	for _, src := range bad {
		if _, err := compileWhere(src); err == nil {
			t.Errorf("compileWhere(%q) accepted", src)
		}
	}
}

func TestPredicateMatching(t *testing.T) {
	st := fixtureStore(t)
	nc := &NodeClass{Name: "P", Class: "Painting", TitleAttr: "title"}
	guitar := &Node{Class: nc, Instance: st.Get("guitar")}   // year 1913
	avignon := &Node{Class: nc, Instance: st.Get("avignon")} // year 1907
	tests := []struct {
		where string
		node  *Node
		want  bool
	}{
		{"year >= 1910", guitar, true},
		{"year >= 1910", avignon, false},
		{"year < 1910", avignon, true},
		{"year != 1913", guitar, false},
		{"year = 1913", guitar, true},
		{"year <= 1913", guitar, true},
		{"year > 1913", guitar, false},
		{"title = 'Guitar'", guitar, true},
		{"title != 'Guitar'", avignon, true},
		{"title > 'G'", guitar, true}, // lexicographic
		{"title < 'A'", guitar, false},
		{"title >= 'Guitar'", guitar, true},
		{"title <= 'Guitar'", guitar, true},
		{"missing = ''", guitar, true}, // unset attr reads as empty
	}
	for _, tt := range tests {
		p, err := compileWhere(tt.where)
		if err != nil {
			t.Fatalf("compileWhere(%q): %v", tt.where, err)
		}
		if got := p.matches(tt.node.Instance); got != tt.want {
			t.Errorf("%q on %s = %v, want %v", tt.where, tt.node.ID(), got, tt.want)
		}
	}
}

// TestFilteredContext reproduces an OOHDM context class: modern paintings
// by Picasso (year >= 1910), which excludes Les Demoiselles d'Avignon.
func TestFilteredContext(t *testing.T) {
	m := NewModel()
	m.MustAddNodeClass(&NodeClass{Name: "PaintingNode", Class: "Painting", TitleAttr: "title"})
	m.MustAddContext(&ContextDef{
		Name: "ModernByAuthor", NodeClass: "PaintingNode",
		GroupBy: "paints", OrderBy: "year",
		Where:  "year >= 1910",
		Access: IndexedGuidedTour{},
	})
	rm, err := m.Resolve(fixtureStore(t))
	if err != nil {
		t.Fatal(err)
	}
	picasso := rm.Context("ModernByAuthor:picasso")
	if picasso == nil {
		t.Fatal("filtered context missing")
	}
	if len(picasso.Members) != 2 {
		t.Fatalf("members = %v, want guitar+guernica", picasso.Members)
	}
	if picasso.Members[0].ID() != "guitar" || picasso.Members[1].ID() != "guernica" {
		t.Errorf("member order = %v", picasso.Members)
	}
	// With the 1907 painting filtered out, guitar becomes the tour head.
	if picasso.Prev("guitar") != nil {
		t.Error("guitar should be first in the filtered tour")
	}
}

func TestFilterEmptiesContext(t *testing.T) {
	m := NewModel()
	m.MustAddNodeClass(&NodeClass{Name: "PaintingNode", Class: "Painting", TitleAttr: "title"})
	m.MustAddContext(&ContextDef{
		Name: "Ancient", NodeClass: "PaintingNode",
		GroupBy: "paints", Where: "year < 1800", Access: Index{},
	})
	rm, err := m.Resolve(fixtureStore(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rm.ContextsOf("Ancient")) != 0 {
		t.Error("fully filtered contexts should not materialize")
	}
	// Ungrouped filtered context materializes (possibly empty).
	m2 := NewModel()
	m2.MustAddNodeClass(&NodeClass{Name: "PaintingNode", Class: "Painting", TitleAttr: "title"})
	m2.MustAddContext(&ContextDef{
		Name: "All1913", NodeClass: "PaintingNode", Where: "year = 1913", Access: Index{},
	})
	rm2, err := m2.Resolve(fixtureStore(t))
	if err != nil {
		t.Fatal(err)
	}
	all := rm2.Context("All1913")
	if all == nil || len(all.Members) != 1 || all.Members[0].ID() != "guitar" {
		t.Errorf("All1913 = %v", all)
	}
}

func TestBadFilterFailsResolve(t *testing.T) {
	m := NewModel()
	m.MustAddNodeClass(&NodeClass{Name: "PaintingNode", Class: "Painting"})
	m.MustAddContext(&ContextDef{
		Name: "Bad", NodeClass: "PaintingNode", Where: "no operator", Access: Index{},
	})
	if _, err := m.Resolve(fixtureStore(t)); err == nil {
		t.Error("bad filter accepted at resolve time")
	}
}

func TestSpecTextIncludesWhereAndShow(t *testing.T) {
	m := NewModel()
	m.MustAddNodeClass(&NodeClass{Name: "P", Class: "Painting", TitleAttr: "title"})
	m.MustAddContext(&ContextDef{
		Name: "Modern", NodeClass: "P", Where: "year >= 1910", Show: "new", Access: Index{},
	})
	spec := SpecText(m)
	if !strings.Contains(spec, `where="year >= 1910"`) || !strings.Contains(spec, "show=new") {
		t.Errorf("spec missing filter/show:\n%s", spec)
	}
}
