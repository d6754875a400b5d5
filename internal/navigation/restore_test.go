package navigation_test

import (
	"encoding/json"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/museum"
	"repro/internal/navigation"
)

// FuzzRestoreSession: any bytes, through ParseRecord and then
// RestoreSession over the paper museum, never panic. A record that
// restores comes back verbatim — but for the history a record without
// one gets, its position alone — and the restored session's own record
// parses back to its State. Restoring grows the lineage's table by at
// most the record's distinct names, and a record that fails to restore
// grows it not at all.
func FuzzRestoreSession(f *testing.F) {
	rm, err := museum.Model(navigation.IndexedGuidedTour{}).Resolve(museum.PaperStore())
	if err != nil {
		f.Fatal(err)
	}
	walked := navigation.NewSession(rm)
	for _, step := range []func() error{
		func() error { return walked.EnterContext("ByAuthor:picasso", "avignon") },
		walked.Next, walked.Next, walked.Back, walked.Up,
		func() error { return walked.EnterContext("ByMovement:cubism", "guitar") },
	} {
		if err := step(); err != nil {
			f.Fatal(err)
		}
	}
	expires := time.Date(2030, 1, 2, 3, 4, 5, 6, time.UTC)
	stale := walked.State()
	stale.History = append(stale.History, navigation.Visit{Context: "ByAuthor:gone", NodeID: "lost"})
	gone := stale
	gone.Nav = slices.Clone(stale.Nav)
	gone.Context, gone.Nav[gone.Cursor].Context = "ByAuthor:gone", "ByAuthor:gone"
	legacy := navigation.SessionState{Context: "ByAuthor:picasso", NodeID: "guitar",
		History: []navigation.Visit{{Context: "ByAuthor:picasso", NodeID: "guitar"}}}
	for _, st := range []navigation.SessionState{{}, walked.State(), stale, gone, legacy} {
		rec := navigation.Record{State: st, Expires: expires}
		f.Add(navigation.AppendRecord(nil, rec))
		raw, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	table := rm.Lineage()
	f.Fuzz(func(t *testing.T, raw []byte) {
		rec, err := navigation.ParseRecord(raw)
		if err != nil {
			return
		}
		before := table.Len()
		s, err := navigation.RestoreSession(rm, rec.State)
		grew := table.Len() - before
		if err != nil {
			if grew != 0 {
				t.Fatalf("a record that failed to restore (%v) grew the table by %d names", err, grew)
			}
			return
		}
		if distinct := distinctNames(rec.State); grew > distinct {
			t.Fatalf("restoring a record of %d distinct names grew the table by %d", distinct, grew)
		}
		want := rec
		switch st := &want.State; {
		case st.Context == "":
			st.NodeID, st.Nav, st.Cursor = "", nil, 0
		case len(st.Nav) == 0:
			st.Nav, st.Cursor = []navigation.Visit{{Context: st.Context, NodeID: st.NodeID}}, 0
		}
		got := navigation.Record{State: s.State(), Expires: rec.Expires}
		if !sameRecord(got, want) {
			t.Fatalf("restored as\n%+v\nwant\n%+v", got.State, want.State)
		}
		again, err := navigation.ParseRecord(s.AppendRecord(nil, rec.Expires))
		if err != nil {
			t.Fatalf("the restored session's record is rejected: %v", err)
		}
		if !sameRecord(again, got) {
			t.Fatalf("the restored session's record reads\n%+v\nits State is\n%+v", again.State, got.State)
		}
	})
}

// distinctNames counts the distinct context names and node ids a state
// carries.
func distinctNames(st navigation.SessionState) int {
	names := map[string]bool{st.Context: true, st.NodeID: true}
	for _, list := range [][]navigation.Visit{st.History, st.Nav} {
		for _, v := range list {
			names[v.Context], names[v.NodeID] = true, true
		}
	}
	return len(names)
}

// TestRestoredSessionRetainsUnder1KiB: a session restored from a
// 24-visit record (the mean of the benchmark's resume population), then
// reloaded and stepped three times, holds its lists as symbols of its
// lineage's table and none of the record's strings: it retains under
// 1 KiB.
func TestRestoredSessionRetainsUnder1KiB(t *testing.T) {
	walked := walkedSession(t, 24)
	rm := walked.Model()
	raw := walked.AppendRecord(nil, time.Now().Add(time.Hour))
	restore := func() *navigation.Session {
		rec, err := navigation.ParseRecord(raw)
		if err != nil {
			t.Fatal(err)
		}
		s, err := navigation.RestoreSession(rm, rec.State)
		if err != nil {
			t.Fatal(err)
		}
		s.SetTrailLimit(trailLimit)
		here := s.Current()
		first := rm.Context(here.Context).Members[0].ID()
		for _, step := range []func() error{
			func() error { return s.EnterContext(here.Context, here.NodeID) },
			s.Up,
			func() error { return s.Select(first) },
			s.Next,
		} {
			if err := step(); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	restore() // warm the encoder pool
	const n = 2000
	sessions := make([]*navigation.Session, n)
	before := heapAfterGC()
	for i := range sessions {
		sessions[i] = restore()
	}
	after := heapAfterGC()
	per := (float64(after) - float64(before)) / n
	t.Logf("a restored 24-visit session retains %.0f B after a reload and three steps", per)
	if !raceEnabled && per >= 1024 {
		t.Errorf("a restored session retains %.0f B, want < 1024", per)
	}
	runtime.KeepAlive(sessions)
}

// heapAfterGC returns the live heap once garbage, pooled buffers
// included, has been collected.
func heapAfterGC() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
