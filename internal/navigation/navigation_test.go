package navigation

import (
	"strings"
	"testing"

	"repro/internal/conceptual"
)

// nodeOf wraps an instance in its node class view.
func nodeOf(nc *NodeClass, inst *conceptual.Instance) *Node {
	return &Node{Class: nc, Instance: inst}
}

// fixtureStore builds the paper's museum: Picasso's three paintings plus a
// Dali painting, grouped by painter and by movement.
func fixtureStore(t *testing.T) *conceptual.Store {
	t.Helper()
	s := conceptual.NewSchema()
	s.MustAddClass(conceptual.NewClass("Painter",
		conceptual.AttrDef{Name: "name", Type: conceptual.StringAttr, Required: true},
	))
	s.MustAddClass(conceptual.NewClass("Painting",
		conceptual.AttrDef{Name: "title", Type: conceptual.StringAttr, Required: true},
		conceptual.AttrDef{Name: "year", Type: conceptual.IntAttr},
	))
	s.MustAddClass(conceptual.NewClass("Movement",
		conceptual.AttrDef{Name: "name", Type: conceptual.StringAttr, Required: true},
	))
	s.MustAddRelationship(&conceptual.Relationship{
		Name: "paints", Source: "Painter", Target: "Painting", Card: conceptual.OneToMany,
	})
	s.MustAddRelationship(&conceptual.Relationship{
		Name: "includes", Source: "Movement", Target: "Painting", Card: conceptual.ManyToMany,
	})
	st := conceptual.NewStore(s)
	st.MustAdd("Painter", "picasso", map[string]string{"name": "Pablo Picasso"})
	st.MustAdd("Painter", "dali", map[string]string{"name": "Salvador Dali"})
	st.MustAdd("Painting", "guitar", map[string]string{"title": "Guitar", "year": "1913"})
	st.MustAdd("Painting", "guernica", map[string]string{"title": "Guernica", "year": "1937"})
	st.MustAdd("Painting", "avignon", map[string]string{"title": "Les Demoiselles d'Avignon", "year": "1907"})
	st.MustAdd("Painting", "memory", map[string]string{"title": "The Persistence of Memory", "year": "1931"})
	st.MustAdd("Movement", "cubism", map[string]string{"name": "Cubism"})
	st.MustAdd("Movement", "surrealism", map[string]string{"name": "Surrealism"})
	st.MustLink("paints", "picasso", "guitar")
	st.MustLink("paints", "picasso", "guernica")
	st.MustLink("paints", "picasso", "avignon")
	st.MustLink("paints", "dali", "memory")
	st.MustLink("includes", "cubism", "guitar")
	st.MustLink("includes", "cubism", "avignon")
	st.MustLink("includes", "surrealism", "memory")
	st.MustLink("includes", "surrealism", "guernica") // for the §2 crossing example
	return st
}

// fixtureModel defines the two context families of the paper's example.
func fixtureModel(t *testing.T, access AccessStructure) *Model {
	t.Helper()
	m := NewModel()
	m.MustAddNodeClass(&NodeClass{Name: "PaintingNode", Class: "Painting", TitleAttr: "title"})
	m.MustAddNodeClass(&NodeClass{Name: "PainterNode", Class: "Painter", TitleAttr: "name"})
	m.MustAddLink(&NavLink{Name: "works", Rel: "paints", From: "PainterNode", To: "PaintingNode"})
	m.MustAddContext(&ContextDef{
		Name: "ByAuthor", NodeClass: "PaintingNode", GroupBy: "paints", OrderBy: "year", Access: access,
	})
	m.MustAddContext(&ContextDef{
		Name: "ByMovement", NodeClass: "PaintingNode", GroupBy: "includes", OrderBy: "title", Access: access,
	})
	return m
}

func resolved(t *testing.T, access AccessStructure) *ResolvedModel {
	t.Helper()
	rm, err := fixtureModel(t, access).Resolve(fixtureStore(t))
	if err != nil {
		t.Fatal(err)
	}
	return rm
}

func TestNodeView(t *testing.T) {
	st := fixtureStore(t)
	nc := &NodeClass{Name: "P", Class: "Painting", TitleAttr: "title", AttrNames: []string{"title"}}
	n := &Node{Class: nc, Instance: st.Get("guitar")}
	if n.ID() != "guitar" || n.Title() != "Guitar" {
		t.Errorf("node = %s / %s", n.ID(), n.Title())
	}
	if n.Attr("title") != "Guitar" {
		t.Errorf("projected attr missing")
	}
	if n.Attr("year") != "" {
		t.Error("attribute outside projection leaked through")
	}
	if got := n.AttrNames(); len(got) != 1 || got[0] != "title" {
		t.Errorf("AttrNames = %v", got)
	}
	// Unprojected node exposes all attributes; title falls back to ID.
	plain := &Node{Class: &NodeClass{Name: "Q", Class: "Painting"}, Instance: st.Get("guitar")}
	if plain.Attr("year") != "1913" {
		t.Error("unprojected attr unavailable")
	}
	if plain.Title() != "guitar" {
		t.Errorf("fallback title = %q", plain.Title())
	}
	if !strings.Contains(n.String(), "guitar") {
		t.Errorf("String = %q", n.String())
	}
}

func TestModelValidation(t *testing.T) {
	m := NewModel()
	if err := m.AddNodeClass(&NodeClass{}); err == nil {
		t.Error("empty node class accepted")
	}
	m.MustAddNodeClass(&NodeClass{Name: "A", Class: "Painting"})
	if err := m.AddNodeClass(&NodeClass{Name: "A", Class: "Painting"}); err == nil {
		t.Error("duplicate node class accepted")
	}
	if err := m.AddLink(&NavLink{Name: "l", From: "A", To: "Ghost"}); err == nil {
		t.Error("link to unknown node class accepted")
	}
	if err := m.AddLink(&NavLink{Name: "l", From: "Ghost", To: "A"}); err == nil {
		t.Error("link from unknown node class accepted")
	}
	if err := m.AddLink(&NavLink{Name: "", From: "A", To: "A"}); err == nil {
		t.Error("unnamed link accepted")
	}
	if err := m.AddContext(&ContextDef{Name: "c", NodeClass: "Ghost", Access: Index{}}); err == nil {
		t.Error("context over unknown node class accepted")
	}
	if err := m.AddContext(&ContextDef{Name: "c", NodeClass: "A"}); err == nil {
		t.Error("context without access structure accepted")
	}
	m.MustAddContext(&ContextDef{Name: "c", NodeClass: "A", Access: Index{}})
	if err := m.AddContext(&ContextDef{Name: "c", NodeClass: "A", Access: Index{}}); err == nil {
		t.Error("duplicate context accepted")
	}
	if got := len(m.NodeClasses()); got != 1 {
		t.Errorf("NodeClasses = %d", got)
	}
	if m.NodeClass("A") == nil {
		t.Error("NodeClass lookup failed")
	}
}

func TestIndexEdges(t *testing.T) {
	rm := resolved(t, Index{})
	rc := rm.Context("ByAuthor:picasso")
	if rc == nil {
		t.Fatal("ByAuthor:picasso missing")
	}
	// Ordered by year: avignon 1907, guitar 1913, guernica 1937.
	if rc.Members[0].ID() != "avignon" || rc.Members[1].ID() != "guitar" || rc.Members[2].ID() != "guernica" {
		t.Fatalf("member order = %v", rc.Members)
	}
	edges := rc.Edges()
	if len(edges) != 6 { // 3 member + 3 up
		t.Fatalf("index edges = %d, want 6", len(edges))
	}
	var members, ups int
	for _, e := range edges {
		switch e.Kind {
		case EdgeMember:
			members++
			if e.From != HubID {
				t.Errorf("member edge from %q", e.From)
			}
		case EdgeUp:
			ups++
			if e.To != HubID {
				t.Errorf("up edge to %q", e.To)
			}
		default:
			t.Errorf("unexpected edge kind %s in index", e.Kind)
		}
	}
	if members != 3 || ups != 3 {
		t.Errorf("members=%d ups=%d", members, ups)
	}
	// No Next edges in a pure index — the paper's Figure 3 page has no
	// Next link.
	if rc.Next("guitar") != nil {
		t.Error("index structure should not offer Next")
	}
}

func TestIndexedGuidedTourEdges(t *testing.T) {
	rm := resolved(t, IndexedGuidedTour{})
	rc := rm.Context("ByAuthor:picasso")
	edges := rc.Edges()
	// 3 member + 3 up + 2 next + 2 prev = 10
	if len(edges) != 10 {
		t.Fatalf("IGT edges = %d, want 10", len(edges))
	}
	// The Figure 4 scenario: Guitar (middle of the year ordering) now has
	// Next and Previous.
	if n := rc.Next("guitar"); n == nil || n.ID() != "guernica" {
		t.Errorf("Next(guitar) = %v, want guernica", n)
	}
	if p := rc.Prev("guitar"); p == nil || p.ID() != "avignon" {
		t.Errorf("Prev(guitar) = %v, want avignon", p)
	}
	// Ends of the tour are open (non-circular).
	if rc.Next("guernica") != nil {
		t.Error("Next at end of open tour should be nil")
	}
	if rc.Prev("avignon") != nil {
		t.Error("Prev at start of open tour should be nil")
	}
}

func TestCircularTour(t *testing.T) {
	rm := resolved(t, IndexedGuidedTour{Circular: true})
	rc := rm.Context("ByAuthor:picasso")
	if n := rc.Next("guernica"); n == nil || n.ID() != "avignon" {
		t.Errorf("circular Next at end = %v, want wrap to avignon", n)
	}
	if p := rc.Prev("avignon"); p == nil || p.ID() != "guernica" {
		t.Errorf("circular Prev at start = %v, want wrap to guernica", p)
	}
}

func TestGuidedTourNoHub(t *testing.T) {
	rm := resolved(t, GuidedTour{})
	rc := rm.Context("ByAuthor:picasso")
	for _, e := range rc.Edges() {
		if e.Kind == EdgeMember || e.Kind == EdgeUp {
			t.Errorf("guided tour has hub edge %s", e)
		}
	}
	if (GuidedTour{}).Kind() != "guided-tour" || (GuidedTour{}).HasHub() {
		t.Error("guided tour metadata wrong")
	}
}

func TestMenuEdges(t *testing.T) {
	rm := resolved(t, Menu{})
	rc := rm.Context("ByAuthor:picasso")
	edges := rc.Edges()
	if len(edges) != 3 {
		t.Fatalf("menu edges = %d, want 3 (no up links)", len(edges))
	}
	for _, e := range edges {
		if e.Kind != EdgeMember {
			t.Errorf("menu edge kind = %s", e.Kind)
		}
	}
}

func TestAccessByKind(t *testing.T) {
	for _, kind := range []string{
		"index", "guided-tour", "circular-guided-tour",
		"indexed-guided-tour", "circular-indexed-guided-tour", "menu",
	} {
		as, err := AccessByKind(kind)
		if err != nil {
			t.Errorf("AccessByKind(%q): %v", kind, err)
			continue
		}
		want := strings.TrimPrefix(kind, "circular-")
		if as.Kind() != want {
			t.Errorf("AccessByKind(%q).Kind() = %q, want %q", kind, as.Kind(), want)
		}
	}
	if _, err := AccessByKind("teleport"); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestGroupedResolution(t *testing.T) {
	rm := resolved(t, Index{})
	byAuthor := rm.ContextsOf("ByAuthor")
	if len(byAuthor) != 2 { // picasso and dali
		t.Fatalf("ByAuthor contexts = %d, want 2", len(byAuthor))
	}
	byMovement := rm.ContextsOf("ByMovement")
	if len(byMovement) != 2 { // cubism and surrealism
		t.Fatalf("ByMovement contexts = %d, want 2", len(byMovement))
	}
	dali := rm.Context("ByAuthor:dali")
	if dali == nil || len(dali.Members) != 1 || dali.Members[0].ID() != "memory" {
		t.Errorf("ByAuthor:dali = %v", dali)
	}
	if dali.Group == nil || dali.Group.ID != "dali" {
		t.Errorf("group instance = %v", dali.Group)
	}
	// ContextsContaining: guitar appears in ByAuthor:picasso and
	// ByMovement:cubism.
	containing := rm.ContextsContaining("guitar")
	if len(containing) != 2 {
		t.Errorf("contexts containing guitar = %d, want 2", len(containing))
	}
	if rc := rm.Context("nothing"); rc != nil {
		t.Error("unknown context lookup should be nil")
	}
}

func TestUngroupedContext(t *testing.T) {
	m := fixtureModel(t, Index{})
	m.MustAddContext(&ContextDef{Name: "AllPaintings", NodeClass: "PaintingNode", OrderBy: "title", Access: Index{}})
	rm, err := m.Resolve(fixtureStore(t))
	if err != nil {
		t.Fatal(err)
	}
	all := rm.Context("AllPaintings")
	if all == nil || len(all.Members) != 4 {
		t.Fatalf("AllPaintings = %v", all)
	}
	// Ordered by title: Guernica, Guitar, Les Demoiselles..., The Persistence...
	if all.Members[0].ID() != "guernica" || all.Members[1].ID() != "guitar" {
		t.Errorf("title order = %v, %v", all.Members[0], all.Members[1])
	}
	if all.Group != nil {
		t.Error("ungrouped context has group instance")
	}
}

func TestResolveErrors(t *testing.T) {
	st := fixtureStore(t)
	m := NewModel()
	m.MustAddNodeClass(&NodeClass{Name: "P", Class: "Painting"})
	m.MustAddContext(&ContextDef{Name: "bad", NodeClass: "P", GroupBy: "ghost", Access: Index{}})
	if _, err := m.Resolve(st); err == nil {
		t.Error("unknown GroupBy relationship accepted")
	}
	m2 := NewModel()
	m2.MustAddNodeClass(&NodeClass{Name: "M", Class: "Movement"})
	// paints targets Painting, not Movement.
	m2.MustAddContext(&ContextDef{Name: "bad2", NodeClass: "M", GroupBy: "paints", Access: Index{}})
	if _, err := m2.Resolve(st); err == nil {
		t.Error("GroupBy relationship with wrong target class accepted")
	}
}

func TestContextPositionAndMember(t *testing.T) {
	rm := resolved(t, Index{})
	rc := rm.Context("ByAuthor:picasso")
	if rc.Position("guitar") != 1 {
		t.Errorf("Position(guitar) = %d", rc.Position("guitar"))
	}
	if rc.Position("memory") != -1 {
		t.Error("non-member should be -1")
	}
	if rc.Member("guitar") == nil || rc.Member("ghost") != nil {
		t.Error("Member lookup wrong")
	}
	if !strings.Contains(rc.String(), "ByAuthor:picasso") {
		t.Errorf("String = %q", rc.String())
	}
}

// TestContextDependentNext reproduces the paper's §2 museum scenario: the
// same painting, reached through different contexts, answers Next
// differently.
func TestContextDependentNext(t *testing.T) {
	rm := resolved(t, IndexedGuidedTour{})

	// Guernica via the author context (year order): next is nothing
	// (it is Picasso's latest), prev is Guitar.
	author := rm.Context("ByAuthor:picasso")
	if p := author.Prev("guernica"); p == nil || p.ID() != "guitar" {
		t.Errorf("ByAuthor Prev(guernica) = %v, want guitar", p)
	}

	// Guernica via the movement context (title order in surrealism:
	// Guernica, The Persistence of Memory): next is memory.
	movement := rm.Context("ByMovement:surrealism")
	if n := movement.Next("guernica"); n == nil || n.ID() != "memory" {
		t.Errorf("ByMovement Next(guernica) = %v, want memory", n)
	}
	// Same node, different contexts, different answers.
	if author.Next("guernica") != nil {
		t.Error("ByAuthor Next(guernica) should be nil (end of tour)")
	}
}

func TestSessionTraversal(t *testing.T) {
	rm := resolved(t, IndexedGuidedTour{})
	s := NewSession(rm)
	if s.Model() != rm {
		t.Error("Model accessor wrong")
	}
	// Enter at the hub, select Guitar, walk the tour.
	if err := s.EnterContext("ByAuthor:picasso", ""); err != nil {
		t.Fatal(err)
	}
	if !s.AtHub() || s.Here() != nil {
		t.Error("session should start at hub")
	}
	if err := s.Select("guitar"); err != nil {
		t.Fatal(err)
	}
	if s.Here().ID() != "guitar" {
		t.Errorf("Here = %v", s.Here())
	}
	if err := s.Next(); err != nil {
		t.Fatal(err)
	}
	if s.Here().ID() != "guernica" {
		t.Errorf("after Next: %v", s.Here())
	}
	if err := s.Prev(); err != nil {
		t.Fatal(err)
	}
	if err := s.Up(); err != nil {
		t.Fatal(err)
	}
	if !s.AtHub() {
		t.Error("Up should land on hub")
	}
	hist := s.History()
	want := []string{HubID, "guitar", "guernica", "guitar", HubID}
	if len(hist) != len(want) {
		t.Fatalf("history = %v", hist)
	}
	for i, v := range hist {
		if v.NodeID != want[i] {
			t.Errorf("history[%d] = %s, want %s", i, v.NodeID, want[i])
		}
	}
}

// TestSessionContextSwitch is the paper's example end to end: arrive at
// Guernica via the author, switch to the movement context, and Next now
// leads to a different painting.
func TestSessionContextSwitch(t *testing.T) {
	rm := resolved(t, IndexedGuidedTour{})
	s := NewSession(rm)
	if err := s.EnterContext("ByAuthor:picasso", "guernica"); err != nil {
		t.Fatal(err)
	}
	if err := s.Next(); err == nil {
		t.Error("Next at end of author tour should fail")
	}
	if err := s.SwitchContext("ByMovement:surrealism"); err != nil {
		t.Fatal(err)
	}
	if err := s.Next(); err != nil {
		t.Fatalf("Next in movement context: %v", err)
	}
	if s.Here().ID() != "memory" {
		t.Errorf("after switch+Next: %v, want memory", s.Here())
	}
}

func TestSessionErrors(t *testing.T) {
	rm := resolved(t, IndexedGuidedTour{})
	s := NewSession(rm)
	if err := s.Next(); err == nil {
		t.Error("Next before entering a context should fail")
	}
	if err := s.EnterContext("Ghost", ""); err == nil {
		t.Error("unknown context accepted")
	}
	if err := s.EnterContext("ByAuthor:picasso", "memory"); err == nil {
		t.Error("entering at non-member accepted")
	}
	if err := s.SwitchContext("ByMovement:cubism"); err == nil {
		t.Error("switch before being at a node accepted")
	}
	s2 := NewSession(rm)
	_ = s2.EnterContext("ByAuthor:picasso", "guitar")
	// guitar is not in surrealism.
	if err := s2.SwitchContext("ByMovement:surrealism"); err == nil {
		t.Error("switch to context not containing node accepted")
	}
	// Select only works from the hub.
	if err := s2.Select("guernica"); err == nil {
		t.Error("Select from a member node accepted")
	}
	// Entering a guided tour (no hub) with empty node lands on first member.
	gt := resolved(t, GuidedTour{})
	s3 := NewSession(gt)
	if err := s3.EnterContext("ByAuthor:picasso", ""); err != nil {
		t.Fatal(err)
	}
	if s3.Here() == nil || s3.Here().ID() != "avignon" {
		t.Errorf("tour entry = %v, want first member avignon", s3.Here())
	}
}

func TestPaginateAndClassify(t *testing.T) {
	items := []string{"r1", "r2", "r3", "r4", "r5"}
	pages, edges, err := Paginate(items, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) != 3 {
		t.Fatalf("pages = %d, want 3", len(pages))
	}
	if pages[2].Number != 3 || len(pages[2].Items) != 1 {
		t.Errorf("last page = %+v", pages[2])
	}
	if len(edges) != 6 { // 3 pages fully connected: 3*2
		t.Errorf("page edges = %d, want 6", len(edges))
	}
	for _, e := range edges {
		if Classify(e.Kind) != Scrolling {
			t.Errorf("page edge classified as %s", Classify(e.Kind))
		}
	}
	if _, _, err := Paginate(items, 0); err == nil {
		t.Error("page size 0 accepted")
	}
	// Navigation edges classify as navigational.
	rm := resolved(t, IndexedGuidedTour{})
	report := ClassifyAll(rm.Context("ByAuthor:picasso").Edges())
	if report.Scrolling != 0 || report.Navigational != 10 {
		t.Errorf("report = %+v", report)
	}
	mixed := ClassifyAll(append(rm.Context("ByAuthor:picasso").Edges(), edges...))
	if mixed.Scrolling != 6 || mixed.Navigational != 10 {
		t.Errorf("mixed report = %+v", mixed)
	}
	if Navigational.String() != "navigational" || Scrolling.String() != "scrolling" || LinkPurpose(0).String() != "unknown" {
		t.Error("LinkPurpose strings wrong")
	}
}

func TestGenerateAndParseLinkbase(t *testing.T) {
	rm := resolved(t, IndexedGuidedTour{})
	doc := GenerateLinkbase(rm)
	out := doc.IndentedString()
	// The Figure 9 shape: xlink namespace, extended links, locators, arcs.
	for _, want := range []string{
		`xmlns:xlink="http://www.w3.org/1999/xlink"`,
		`xlink:type="extended"`,
		`xlink:type="locator"`,
		`xlink:type="arc"`,
		`xlink:href="guitar.xml"`,
		`xlink:arcrole="urn:repro:nav:next"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("linkbase missing %s:\n%s", want, out)
		}
	}

	// Round trip: parse contexts back out.
	contexts, err := ParseLinkbase(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(contexts) != 4 { // 2 authors + 2 movements
		t.Fatalf("parsed contexts = %d, want 4", len(contexts))
	}
	var picasso *LinkbaseContext
	for _, c := range contexts {
		if c.Name == "ByAuthor:picasso" {
			picasso = c
		}
	}
	if picasso == nil {
		t.Fatal("ByAuthor:picasso not round-tripped")
	}
	if picasso.AccessKind != "indexed-guided-tour" {
		t.Errorf("access kind = %q", picasso.AccessKind)
	}
	if len(picasso.Order) != 3 || picasso.Order[0] != "avignon" {
		t.Errorf("member order = %v", picasso.Order)
	}
	if picasso.NodeTitles["guitar"] != "Guitar" {
		t.Errorf("titles = %v", picasso.NodeTitles)
	}
	// Edge multiset must match the model's.
	want := rm.Context("ByAuthor:picasso").Edges()
	if len(picasso.Edges) != len(want) {
		t.Fatalf("edges = %d, want %d", len(picasso.Edges), len(want))
	}
	for i, e := range picasso.Edges {
		if e != want[i] {
			t.Errorf("edge[%d] = %v, want %v", i, e, want[i])
		}
	}
}

func TestArcroleMapping(t *testing.T) {
	kinds := []EdgeKind{EdgeMember, EdgeUp, EdgeNext, EdgePrev, EdgePage}
	for _, k := range kinds {
		if got := KindForArcrole(ArcroleFor(k)); got != k {
			t.Errorf("round trip %s -> %s", k, got)
		}
	}
	if KindForArcrole("urn:other:thing") != "" {
		t.Error("foreign arcrole should map to empty kind")
	}
	if ArcroleFor(EdgeKind("custom")) != "urn:repro:nav:custom" {
		t.Errorf("custom arcrole = %q", ArcroleFor(EdgeKind("custom")))
	}
	if KindForArcrole("urn:repro:nav:custom") != EdgeKind("custom") {
		t.Error("custom arcrole round trip failed")
	}
	if NodeHref("guitar") != "guitar.xml" {
		t.Errorf("NodeHref = %q", NodeHref("guitar"))
	}
}

func TestEdgeString(t *testing.T) {
	e := Edge{From: "a", To: "b", Kind: EdgeNext, Label: "Next"}
	s := e.String()
	if !strings.Contains(s, "a") || !strings.Contains(s, "next") {
		t.Errorf("Edge.String = %q", s)
	}
}
