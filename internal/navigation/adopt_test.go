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

// TestAdoptKeepsLookupsConsistent: an adopted context answers through
// every lookup of the adopting model — Contexts, Context by name and
// Landmarks — and a context whose declaration differs from the fresh
// derivation, or that holds an instance the store has since replaced,
// is refused.
func TestAdoptKeepsLookupsConsistent(t *testing.T) {
	store := museum.PaperStore()
	m := museum.Model(navigation.IndexedGuidedTour{})
	m.MustAddContext(&navigation.ContextDef{Name: "All", NodeClass: "PaintingNode", OrderBy: "year", Access: navigation.GuidedTour{}})
	m.MustAddLandmark("All")
	resolve := func() *navigation.ResolvedModel {
		rm, err := m.Resolve(store)
		if err != nil {
			t.Fatal(err)
		}
		return rm
	}
	prev, cur := resolve(), resolve()
	for i, rc := range cur.Contexts {
		if !cur.Adopt(i, prev.Contexts[i]) {
			t.Fatalf("context %s of an identical resolution was not adopted", rc.Name)
		}
	}
	for i, rc := range cur.Contexts {
		if rc != prev.Contexts[i] || cur.Context(rc.Name) != rc {
			t.Errorf("context %d (%s): Contexts and Context disagree after adoption", i, rc.Name)
		}
	}
	if len(cur.Landmarks) != 1 || cur.Landmarks[0] != cur.Context("All") {
		t.Errorf("landmarks %v do not hold the adopted context", cur.Landmarks)
	}

	// An instance the store replaced between the two resolutions.
	prev = resolve()
	if err := store.SetAttrs("guitar", map[string]string{"technique": "Collage"}); err != nil {
		t.Fatal(err)
	}
	cur = resolve()
	i := indexOf(t, cur, "ByAuthor:picasso")
	if cur.Adopt(i, prev.Contexts[i]) {
		t.Error("adopted a context holding an instance the store replaced")
	}
	if i := indexOf(t, cur, "ByAuthor:dali"); !cur.Adopt(i, prev.Contexts[i]) {
		t.Error("refused a context whose instances the store kept")
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
	prev = resolve()
	setAccess(navigation.AdaptiveTour{Plans: map[string]navigation.TourPlan{"ByAuthor:dali": {Order: []string{"memory"}, Landmarks: []string{"memory"}}}})
	cur = resolve()
	i = indexOf(t, cur, "ByAuthor:picasso")
	if cur.Adopt(i, prev.Contexts[i]) {
		t.Error("adopted a context resolved under another declaration")
	}
}

// indexOf returns the position of the named context in rm.Contexts.
func indexOf(t *testing.T, rm *navigation.ResolvedModel, name string) int {
	t.Helper()
	for i, rc := range rm.Contexts {
		if rc.Name == name {
			return i
		}
	}
	t.Fatalf("no context %q", name)
	return -1
}
