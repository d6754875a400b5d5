package navigation

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestVisitIsEightPointerFreeBytes: a session's lists hold visits of
// two symbols and nothing the collector has to scan.
func TestVisitIsEightPointerFreeBytes(t *testing.T) {
	if size := unsafe.Sizeof(visit{}); size != 8 {
		t.Errorf("visit is %d bytes, want 8", size)
	}
	typ := reflect.TypeOf(visit{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Type.Kind() != reflect.Uint32 {
			t.Errorf("visit field %s is a %s, want a uint32 symbol", f.Name, f.Type)
		}
	}
}

// TestPublishNeverMovesBackwards: publishing an older resolution after
// a newer one leaves the newer one the lineage's newest, and sessions
// resolve against it.
func TestPublishNeverMovesBackwards(t *testing.T) {
	store, model := fixtureStore(t), fixtureModel(t, IndexedGuidedTour{})
	l := NewLineage()
	older, err := l.Resolve(model, store)
	if err != nil {
		t.Fatal(err)
	}
	newer, err := l.Resolve(model, store)
	if err != nil {
		t.Fatal(err)
	}
	if l.Newest() != nil {
		t.Fatal("Resolve published")
	}
	newer.Publish()
	older.Publish()
	if l.Newest() != newer {
		t.Fatal("publishing an older resolution moved the newest model backwards")
	}
	if s := NewSession(older); s.Model() != newer {
		t.Error("a session over an older model does not resolve against the newest")
	}
}

// TestRestoreInternsOnlyWhatItKeeps: restoring a record adds each name
// the table lacks once, names the model no longer has included;
// restoring it again adds nothing, and neither does a record that
// fails.
func TestRestoreInternsOnlyWhatItKeeps(t *testing.T) {
	rm := resolved(t, IndexedGuidedTour{})
	l := rm.Lineage()
	state := SessionState{
		Context: "ByAuthor:picasso", NodeID: "guitar",
		History: []Visit{
			{Context: "ByAuthor:gone", NodeID: "lost"},
			{Context: "ByAuthor:picasso", NodeID: "guitar"},
		},
	}
	before := l.Len()
	s, err := RestoreSession(rm, state)
	if err != nil {
		t.Fatal(err)
	}
	if grew := l.Len() - before; grew != 2 {
		t.Errorf("restoring a record with two stale names grew the table by %d", grew)
	}
	if got := s.History(); !reflect.DeepEqual(got, state.History) {
		t.Errorf("trail %+v, want %+v verbatim", got, state.History)
	}
	after := l.Len()
	if _, err := RestoreSession(rm, state); err != nil {
		t.Fatal(err)
	}
	failing := state
	failing.Context, failing.History = "ByAuthor:nobody", []Visit{{Context: "never", NodeID: "seen"}}
	if _, err := RestoreSession(rm, failing); err == nil {
		t.Fatal("a position the model lacks restored")
	}
	failing = state
	failing.Nav, failing.Cursor = []Visit{{Context: "other", NodeID: "names"}}, 0
	if _, err := RestoreSession(rm, failing); err == nil {
		t.Fatal("a cursor disagreeing with the position restored")
	}
	if l.Len() != after {
		t.Errorf("a second restore and two failed ones grew the table from %d to %d names", after, l.Len())
	}
}

// TestRebaseAcrossLineagesRemaps: a session moved onto another
// lineage's model keeps its trail and history by name, stale names
// included, and steps by the new model.
func TestRebaseAcrossLineagesRemaps(t *testing.T) {
	store := fixtureStore(t)
	first, err := fixtureModel(t, IndexedGuidedTour{}).Resolve(store)
	if err != nil {
		t.Fatal(err)
	}
	s, err := RestoreSession(first, SessionState{
		Context: "ByAuthor:picasso", NodeID: "avignon",
		History: []Visit{{Context: "Gone", NodeID: "x"}, {Context: "ByAuthor:picasso", NodeID: "avignon"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Next(); err != nil {
		t.Fatal(err)
	}
	want := s.State()
	// A model whose first names are others, so its symbols differ.
	m := NewModel()
	m.MustAddNodeClass(&NodeClass{Name: "PaintingNode", Class: "Painting", TitleAttr: "title"})
	m.MustAddContext(&ContextDef{Name: "All", NodeClass: "PaintingNode", Access: Index{}})
	m.MustAddContext(&ContextDef{Name: "ByAuthor", NodeClass: "PaintingNode", GroupBy: "paints", OrderBy: "year", Access: GuidedTour{}})
	second, err := m.Resolve(store)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Rebase(second); err != nil {
		t.Fatal(err)
	}
	if s.Model() != second {
		t.Fatal("session not moved to the other lineage")
	}
	if got := s.State(); !reflect.DeepEqual(got, want) {
		t.Fatalf("state after rebase %+v, want %+v", got, want)
	}
	if err := s.Next(); err != nil {
		t.Fatal(err)
	}
	if _, node := s.Location(); node != "guernica" {
		t.Errorf("Next after rebase = %s, want guernica", node)
	}
}
