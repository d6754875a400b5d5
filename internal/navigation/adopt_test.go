package navigation_test

import (
	"strings"
	"testing"
	"unsafe"

	"repro/internal/museum"
	"repro/internal/navigation"
)

// sameBytes reports whether two strings share their backing bytes.
func sameBytes(a, b string) bool { return unsafe.StringData(a) == unsafe.StringData(b) }

// TestVisitsHoldModelStrings: a session entered with strings built
// fresh for the call (as the server cuts them out of a request path)
// stores the model's strings in its position, trail and history, so a
// remembered visit never keeps the caller's memory alive.
func TestVisitsHoldModelStrings(t *testing.T) {
	rm := resolvedPaperModel(t)
	rc := rm.Context("ByAuthor:picasso")
	fresh := func(s string) string { return strings.Clone(s) }
	check := func(what string, v navigation.Visit, node string) {
		t.Helper()
		if !sameBytes(v.Context, rc.Name) {
			t.Errorf("%s: context %q does not share the model's bytes", what, v.Context)
		}
		if !sameBytes(v.NodeID, node) {
			t.Errorf("%s: node %q does not share the model's bytes", what, v.NodeID)
		}
	}
	checkSession := func(what string, s *navigation.Session, node string) {
		t.Helper()
		_, here := s.Location()
		check(what+" position", navigation.Visit{Context: rc.Name, NodeID: here}, node)
		trail := s.History()
		check(what+" trail", trail[len(trail)-1], node)
		nav, cur := s.NavHistory()
		check(what+" history", nav[cur], node)
		st := s.State()
		check(what+" state", navigation.Visit{Context: st.Context, NodeID: st.NodeID}, node)
	}

	s := navigation.NewSession(rm)
	if err := s.EnterContext(fresh("ByAuthor:picasso"), fresh("guitar")); err != nil {
		t.Fatal(err)
	}
	checkSession("member entry", s, rc.Member("guitar").ID())

	if err := s.EnterContext(fresh("ByAuthor:picasso"), fresh(navigation.HubID)); err != nil {
		t.Fatal(err)
	}
	checkSession("hub entry", s, navigation.HubID)

	if err := s.Select(fresh("guernica")); err != nil {
		t.Fatal(err)
	}
	checkSession("select", s, rc.Member("guernica").ID())
}

// TestAdoptKeepsLookupsConsistent: a context a resolution takes over
// from its predecessor in the lineage answers through every lookup of
// the new model — Contexts, Context by name and Landmarks. A context
// that holds an instance the store has since replaced is resolved
// afresh, one whose declaration changed only in its access structure
// shares its predecessor's members, and nothing is taken over from a
// model of another lineage.
func TestAdoptKeepsLookupsConsistent(t *testing.T) {
	store := museum.PaperStore()
	m := museum.Model(navigation.IndexedGuidedTour{})
	m.MustAddContext(&navigation.ContextDef{Name: "All", NodeClass: "PaintingNode", OrderBy: "year", Access: navigation.GuidedTour{}})
	m.MustAddLandmark("All")
	first, err := m.Resolve(store)
	if err != nil {
		t.Fatal(err)
	}
	next := func(l *navigation.Lineage, prev *navigation.ResolvedModel) *navigation.ResolvedModel {
		rm, err := l.Resolve(m, store, prev)
		if err != nil {
			t.Fatal(err)
		}
		return rm
	}
	prev, cur := first, next(first.Lineage(), first)
	for i, rc := range cur.Contexts {
		if rc != prev.Contexts[i] {
			t.Fatalf("context %s of an identical resolution was not taken over", rc.Name)
		}
		if cur.Context(rc.Name) != rc {
			t.Errorf("context %d (%s): Contexts and Context disagree after the take-over", i, rc.Name)
		}
	}
	if len(cur.Landmarks) != 1 || cur.Landmarks[0] != cur.Context("All") {
		t.Errorf("landmarks %v do not hold the context taken over", cur.Landmarks)
	}
	other := next(navigation.NewLineage(func() *navigation.ResolvedModel { return nil }), cur)
	for _, rc := range other.Contexts {
		if cur.Context(rc.Name) == rc {
			t.Errorf("context %s was taken over from a model of another lineage", rc.Name)
		}
	}

	// An instance the store replaced between the two resolutions.
	prev = cur
	if err := store.SetAttrs("guitar", map[string]string{"technique": "Collage"}); err != nil {
		t.Fatal(err)
	}
	cur = next(first.Lineage(), prev)
	for _, name := range []string{"ByAuthor:picasso", "All"} {
		if cur.Context(name) == prev.Context(name) {
			t.Errorf("took over %s, which holds an instance the store replaced", name)
		}
	}
	if cur.Context("ByAuthor:dali") != prev.Context("ByAuthor:dali") {
		t.Error("resolved afresh a context whose instances the store kept")
	}

	// Another declaration that gives this context the same edges: an
	// adaptive tour whose plan changed for a sibling context only.
	setAccess := func(as navigation.AccessStructure) {
		for _, def := range m.Contexts() {
			if def.Name == "ByAuthor" {
				def.Access = as
			}
		}
	}
	setAccess(navigation.AdaptiveTour{Plans: map[string]navigation.TourPlan{}})
	prev = next(first.Lineage(), cur)
	setAccess(navigation.AdaptiveTour{Plans: map[string]navigation.TourPlan{"ByAuthor:dali": {Order: []string{"memory"}, Landmarks: []string{"memory"}}}})
	cur = next(first.Lineage(), prev)
	was, now := prev.Context("ByAuthor:picasso"), cur.Context("ByAuthor:picasso")
	if now == was {
		t.Error("took over a context resolved under another declaration")
	}
	if &now.Members[0] != &was.Members[0] {
		t.Error("a context whose access structure alone changed did not keep its predecessor's members")
	}
	if cur.Context("ByMovement:cubism") != prev.Context("ByMovement:cubism") {
		t.Error("an access structure change of ByAuthor resolved a ByMovement context afresh")
	}
}
