package navigation_test

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"repro/internal/museum"
	"repro/internal/navigation"
)

func resolvedPaperModel(t *testing.T) *navigation.ResolvedModel {
	t.Helper()
	rm, err := museum.Model(navigation.IndexedGuidedTour{}).Resolve(museum.PaperStore())
	if err != nil {
		t.Fatal(err)
	}
	return rm
}

func TestSessionStateRoundTrip(t *testing.T) {
	rm := resolvedPaperModel(t)
	sess := navigation.NewSession(rm)
	if err := sess.EnterContext("ByAuthor:picasso", "avignon"); err != nil {
		t.Fatal(err)
	}
	if err := sess.Next(); err != nil {
		t.Fatal(err)
	}

	state := sess.State()
	if state.Context != "ByAuthor:picasso" || state.NodeID != "guitar" {
		t.Fatalf("state = %+v", state)
	}
	// Through the binary record the server's persistence layer stores,
	// and through the legacy JSON form it still reads.
	for _, route := range persistRoutes(t, state) {
		t.Run(route.name, func(t *testing.T) {
			restored, err := navigation.RestoreSession(rm, route.state)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(restored.History(), sess.History()) {
				t.Errorf("history: %+v != %+v", restored.History(), sess.History())
			}
			rc, node := restored.Location()
			if rc.Name != "ByAuthor:picasso" || node != "guitar" {
				t.Errorf("location = %s/%s", rc.Name, node)
			}
			// The restored session must keep navigating: next from guitar is
			// guernica (ByAuthor is ordered by year).
			if err := restored.Next(); err != nil {
				t.Fatal(err)
			}
			if _, node := restored.Location(); node != "guernica" {
				t.Errorf("Next after restore = %s, want guernica", node)
			}
			// Restoring must not have appended a visit of its own.
			if got := len(restored.History()); got != 3 {
				t.Errorf("history length after restore+Next = %d, want 3", got)
			}
		})
	}
}

// persistRoutes passes a state through the two stored forms of a
// session record, the binary codec and the legacy JSON, and returns
// what each decodes to.
func persistRoutes(t *testing.T, state navigation.SessionState) []struct {
	name  string
	state navigation.SessionState
} {
	t.Helper()
	rec := navigation.Record{State: state}
	raw, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	fromJSON, err := navigation.ParseRecord(raw)
	if err != nil {
		t.Fatal(err)
	}
	fromCodec, err := navigation.ParseRecord(navigation.AppendRecord(nil, rec))
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name  string
		state navigation.SessionState
	}{{"codec", fromCodec.State}, {"json", fromJSON.State}}
}

// TestSessionStateHistoryRoundTrip: the navigation history — the list
// Back and Forward traverse, with its cursor — survives the
// persist→rehydrate cycle in both stored forms, including a
// mid-history cursor.
func TestSessionStateHistoryRoundTrip(t *testing.T) {
	rm := resolvedPaperModel(t)
	sess := navigation.NewSession(rm)
	for _, step := range []func() error{
		func() error { return sess.EnterContext("ByAuthor:picasso", "avignon") },
		sess.Next, // guitar
		sess.Next, // guernica
		sess.Back, // back to guitar: mid-history, forward entry live
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}

	for _, route := range persistRoutes(t, sess.State()) {
		t.Run(route.name, func(t *testing.T) {
			restored, err := navigation.RestoreSession(rm, route.state)
			if err != nil {
				t.Fatal(err)
			}

			wantNav, wantCur := sess.NavHistory()
			gotNav, gotCur := restored.NavHistory()
			if gotCur != wantCur || !reflect.DeepEqual(gotNav, wantNav) {
				t.Fatalf("restored history %+v@%d, want %+v@%d", gotNav, gotCur, wantNav, wantCur)
			}
			// The restored session resumes mid-history: Forward reaches the
			// entry the pre-restart Back stepped away from, and a further Back
			// retraces the walk.
			if err := restored.Forward(); err != nil {
				t.Fatal(err)
			}
			if _, node := restored.Location(); node != "guernica" {
				t.Errorf("Forward after restore = %s, want guernica", node)
			}
			if err := restored.Back(); err != nil {
				t.Fatal(err)
			}
			if err := restored.Back(); err != nil {
				t.Fatal(err)
			}
			if _, node := restored.Location(); node != "avignon" {
				t.Errorf("Back×2 after restore = %s, want avignon", node)
			}
		})
	}
}

// TestRestoreSessionLegacyRecord: a record persisted before histories
// existed (no nav, no cursor) synthesizes a single-entry history at the
// stored position, so old cookies keep working after an upgrade.
func TestRestoreSessionLegacyRecord(t *testing.T) {
	rm := resolvedPaperModel(t)
	restored, err := navigation.RestoreSession(rm, navigation.SessionState{
		Context: "ByAuthor:picasso",
		NodeID:  "guitar",
		History: []navigation.Visit{
			{Context: "ByAuthor:picasso", NodeID: "avignon"},
			{Context: "ByAuthor:picasso", NodeID: "guitar"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	nav, cur := restored.NavHistory()
	if len(nav) != 1 || cur != 0 || nav[0] != (navigation.Visit{Context: "ByAuthor:picasso", NodeID: "guitar"}) {
		t.Fatalf("synthesized history = %+v@%d", nav, cur)
	}
	if restored.CanBack() || restored.CanForward() {
		t.Error("legacy record should have no back/forward entries")
	}
	// The trail is still the stored one.
	if got := len(restored.History()); got != 2 {
		t.Errorf("trail length = %d, want 2", got)
	}
}

// TestRestoreSessionCorruptHistory: a cursor outside the list, or a
// cursor entry disagreeing with the stored position, marks the record
// corrupt — restore refuses rather than resuming somewhere wrong.
func TestRestoreSessionCorruptHistory(t *testing.T) {
	rm := resolvedPaperModel(t)
	nav := []navigation.Visit{
		{Context: "ByAuthor:picasso", NodeID: "avignon"},
		{Context: "ByAuthor:picasso", NodeID: "guitar"},
	}
	if _, err := navigation.RestoreSession(rm, navigation.SessionState{
		Context: "ByAuthor:picasso", NodeID: "guitar", Nav: nav, Cursor: 5,
	}); err == nil {
		t.Error("out-of-range cursor accepted")
	}
	if _, err := navigation.RestoreSession(rm, navigation.SessionState{
		Context: "ByAuthor:picasso", NodeID: "guitar", Nav: nav, Cursor: 0,
	}); err == nil {
		t.Error("cursor/position disagreement accepted")
	}
}

func TestRestoreSessionAtHub(t *testing.T) {
	rm := resolvedPaperModel(t)
	sess := navigation.NewSession(rm)
	if err := sess.EnterContext("ByAuthor:picasso", navigation.HubID); err != nil {
		t.Fatal(err)
	}
	restored, err := navigation.RestoreSession(rm, sess.State())
	if err != nil {
		t.Fatal(err)
	}
	if !restored.AtHub() {
		t.Error("restored session not at hub")
	}
}

func TestRestoreFreshSession(t *testing.T) {
	rm := resolvedPaperModel(t)
	restored, err := navigation.RestoreSession(rm, navigation.SessionState{})
	if err != nil {
		t.Fatal(err)
	}
	if restored.Context() != nil || len(restored.History()) != 0 {
		t.Errorf("restored empty state = %+v", restored.State())
	}
}

func TestRestoreSessionErrors(t *testing.T) {
	rm := resolvedPaperModel(t)
	if _, err := navigation.RestoreSession(rm, navigation.SessionState{
		Context: "ByDecade:1930s", NodeID: "guernica",
	}); err == nil {
		t.Error("unknown context accepted")
	}
	if _, err := navigation.RestoreSession(rm, navigation.SessionState{
		Context: "ByAuthor:picasso", NodeID: "memory", // dali's painting
	}); !errors.Is(err, navigation.ErrNotInContext) {
		t.Errorf("foreign node err = %v, want ErrNotInContext", err)
	}
	// A hub position in a context whose access structure lost its hub.
	rmNoHub, err := museum.Model(navigation.GuidedTour{}).Resolve(museum.PaperStore())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := navigation.RestoreSession(rmNoHub, navigation.SessionState{
		Context: "ByAuthor:picasso", NodeID: navigation.HubID,
	}); err == nil {
		t.Error("hub position accepted in hub-less context")
	}
}
