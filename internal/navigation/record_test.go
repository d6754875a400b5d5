package navigation_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/museum"
	"repro/internal/navigation"
)

// sameRecord compares records the way a restore sees them: times by
// instant, and an empty list the same as an absent one (JSON decodes
// "[]" to an empty slice, the codec to nil).
func sameRecord(a, b navigation.Record) bool {
	return a.Expires.Equal(b.Expires) &&
		a.State.Context == b.State.Context && a.State.NodeID == b.State.NodeID &&
		slices.Equal(a.State.History, b.State.History) &&
		slices.Equal(a.State.Nav, b.State.Nav) &&
		a.State.Cursor == b.State.Cursor
}

// recordNames mixes the paper museum's names with non-ASCII ones, the
// hub id and the empty string.
var recordNames = []string{
	"ByAuthor:picasso", "ByMovement:cubism", "ByAuthor:dalí", "Par époque:1900–1910",
	"作者:北斎", "🎨 gallery", navigation.HubID, "", "guitar", "guernica", "avignon",
	"memory", "Ωmega", "naïve_art",
}

// trailLimit is the server's default trail cap (server.DefaultTrailLimit).
const trailLimit = 1024

// randomRecord draws one session record of a randomly chosen shape.
func randomRecord(rng *rand.Rand) navigation.Record {
	name := func() string {
		if rng.Intn(3) == 0 {
			return fmt.Sprintf("painting%03d_%03d", rng.Intn(50), rng.Intn(20))
		}
		return recordNames[rng.Intn(len(recordNames))]
	}
	visits := func(n int) []navigation.Visit {
		if n == 0 {
			return nil
		}
		out := make([]navigation.Visit, n)
		for i := range out {
			out[i] = navigation.Visit{Context: name(), NodeID: name()}
		}
		return out
	}
	var r navigation.Record
	switch rng.Intn(6) {
	case 0: // an empty session: no position, no lists
	case 1: // at a hub
		r.State.Context, r.State.NodeID = name(), navigation.HubID
		r.State.History = visits(1 + rng.Intn(8))
		r.State.Nav = []navigation.Visit{{Context: r.State.Context, NodeID: navigation.HubID}}
	case 2: // written before histories existed: no nav list
		r.State.Context, r.State.NodeID = name(), name()
		r.State.History = visits(rng.Intn(30))
	case 3, 4: // a mid-history cursor
		r.State.History = visits(1 + rng.Intn(40))
		r.State.Nav = visits(1 + rng.Intn(20))
		r.State.Cursor = rng.Intn(len(r.State.Nav))
		here := r.State.Nav[r.State.Cursor]
		r.State.Context, r.State.NodeID = here.Context, here.NodeID
	case 5: // a trail past the trail limit
		r.State.History = visits(trailLimit + 1 + rng.Intn(300))
		r.State.Nav = visits(1 + rng.Intn(trailLimit))
		r.State.Cursor = len(r.State.Nav) - 1
		here := r.State.Nav[r.State.Cursor]
		r.State.Context, r.State.NodeID = here.Context, here.NodeID
	}
	if rng.Intn(4) > 0 {
		// Any instant JSON can carry, outside UnixNano's range too, in
		// a random zone.
		lo, hi := time.Date(1, 1, 2, 0, 0, 0, 0, time.UTC).Unix(), time.Date(9998, 12, 31, 0, 0, 0, 0, time.UTC).Unix()
		zone := time.FixedZone("", (rng.Intn(49)-24)*30*60)
		r.Expires = time.Unix(lo+rng.Int63n(hi-lo), rng.Int63n(1e9)).In(zone)
	}
	return r
}

// TestRecordCodecMatchesJSON: the binary codec and the JSON form it
// replaced decode every state to the same record.
func TestRecordCodecMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 2000; i++ {
		r := randomRecord(rng)
		viaCodec, err := navigation.ParseRecord(navigation.AppendRecord(nil, r))
		if err != nil {
			t.Fatalf("state %d: codec: %v", i, err)
		}
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("state %d: %v", i, err)
		}
		viaJSON, err := navigation.ParseRecord(raw)
		if err != nil {
			t.Fatalf("state %d: json: %v", i, err)
		}
		if !sameRecord(viaCodec, viaJSON) || !sameRecord(viaCodec, r) {
			t.Fatalf("state %d: codec %+v, json %+v, want %+v", i, viaCodec, viaJSON, r)
		}
	}
}

// TestRecordExpiryRange: the expiry survives at the edges of what JSON
// can carry and outside UnixNano's 1678–2262, and the zero time stays
// zero.
func TestRecordExpiryRange(t *testing.T) {
	for _, at := range []time.Time{
		{},
		time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(1, 1, 1, 0, 0, 0, 1, time.UTC),
		time.Date(1600, 6, 1, 12, 0, 0, 999999999, time.UTC),
		time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2300, 1, 1, 0, 0, 0, 5, time.FixedZone("", -5*3600)),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
	} {
		got, err := navigation.ParseRecord(navigation.AppendRecord(nil, navigation.Record{Expires: at}))
		if err != nil {
			t.Fatalf("%v: %v", at, err)
		}
		if !got.Expires.Equal(at) || got.Expires.IsZero() != at.IsZero() {
			t.Errorf("expiry %v came back as %v", at, got.Expires)
		}
	}
}

// TestParseRecordRejects: every malformed binary record is an error,
// never a panic or a partial record.
func TestParseRecordRejects(t *testing.T) {
	valid := navigation.AppendRecord(nil, navigation.Record{
		State: navigation.SessionState{
			Context: "ByAuthor:picasso", NodeID: "guitar",
			History: []navigation.Visit{{Context: "ByAuthor:picasso", NodeID: "guitar"}},
			Nav:     []navigation.Visit{{Context: "ByAuthor:picasso", NodeID: "guitar"}},
		},
		Expires: time.Date(2026, 10, 17, 10, 0, 0, 0, time.UTC),
	})
	if _, err := navigation.ParseRecord(valid); err != nil {
		t.Fatal(err)
	}
	bad := map[string][]byte{
		"empty":            {},
		"trailing byte":    append(slices.Clone(valid), 0),
		"version 0":        append([]byte{0x00}, valid[1:]...),
		"version 2":        append([]byte{0x02}, valid[1:]...),
		"nanoseconds 1e9":  {0x01, 0x00, 0x80, 0x94, 0xeb, 0xdc, 0x03, 1, 0, 0, 0, 0, 0, 0},
		"overlong varint":  {0x01, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
		"table count":      {0x01, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"string length":    {0x01, 0x00, 0x00, 1, 0xff, 0x7f, 'x'},
		"trail count":      {0x01, 0x00, 0x00, 1, 0, 0, 0, 0xff, 0xff, 0x03, 0, 0},
		"nav count":        {0x01, 0x00, 0x00, 1, 0, 0, 0, 0, 2, 0, 0, 0},
		"context index":    {0x01, 0x00, 0x00, 1, 0, 1, 0, 0, 0, 0},
		"node index":       {0x01, 0x00, 0x00, 1, 0, 0, 1, 0, 0, 0},
		"trail node index": {0x01, 0x00, 0x00, 1, 0, 0, 0, 1, 0, 1, 0, 0},
		"nav context":      {0x01, 0x00, 0x00, 1, 0, 0, 0, 0, 1, 1, 0, 0},
		"empty table":      {0x01, 0x00, 0x00, 0, 0, 0, 0, 0, 0},
	}
	// Every proper prefix of a valid record is cut short.
	for n := 0; n < len(valid); n++ {
		bad[fmt.Sprintf("prefix %d", n)] = valid[:n]
	}
	for name, raw := range bad {
		if r, err := navigation.ParseRecord(raw); err == nil {
			t.Errorf("%s: % x accepted as %+v", name, raw, r)
		}
	}
	// The smallest well-formed record: a one-string table holding "".
	if _, err := navigation.ParseRecord([]byte{0x01, 0x00, 0x00, 1, 0, 0, 0, 0, 0, 0}); err != nil {
		t.Errorf("minimal record rejected: %v", err)
	}
}

// FuzzParseRecord: the decoder never panics, and whatever it accepts —
// binary or legacy JSON — re-encodes to a record that parses back equal.
func FuzzParseRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		r, err := navigation.ParseRecord(raw)
		if err != nil {
			return
		}
		again, err := navigation.ParseRecord(navigation.AppendRecord(nil, r))
		if err != nil {
			t.Fatalf("re-encoded record rejected: %v", err)
		}
		if !sameRecord(r, again) {
			t.Fatalf("round trip changed the record:\n got %+v\nwant %+v", again, r)
		}
	})
}

// walkedState walks a visitor over the 50/20/8 museum until its trail
// holds the given number of visits, under the server's trail limit.
func walkedState(tb testing.TB, visits int) navigation.SessionState {
	tb.Helper()
	st := walkedSession(tb, visits).State()
	if len(st.History) != visits {
		tb.Fatalf("walk reached %d visits, want %d", len(st.History), visits)
	}
	return st
}

// walkedSession is the session walkedState walks.
func walkedSession(tb testing.TB, visits int) *navigation.Session {
	tb.Helper()
	store := museum.Synthetic(museum.SyntheticSpec{Painters: 50, PaintingsPerPainter: 20, Movements: 8, Seed: 1})
	rm, err := museum.Model(navigation.IndexedGuidedTour{}).Resolve(store)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(visits)))
	s := navigation.NewSession(rm)
	s.SetTrailLimit(trailLimit)
	enter := func() error {
		rc := rm.Contexts[rng.Intn(len(rm.Contexts))]
		if len(rc.Members) == 0 {
			return nil
		}
		return s.EnterContext(rc.Name, rc.Members[rng.Intn(len(rc.Members))].ID())
	}
	if err := enter(); err != nil {
		tb.Fatal(err)
	}
	for steps := 0; len(s.History()) < visits && steps < 100*visits; steps++ {
		switch p := rng.Intn(20); {
		case p < 11:
			_ = s.Next()
		case p < 13:
			_ = s.Prev()
		case p < 16:
			_ = s.Back()
		case p < 17:
			_ = s.Forward()
		default:
			_ = enter()
		}
	}
	return s
}

// TestSessionAppendRecordMatchesState: a session encodes, from its own
// lists, the record AppendRecord makes of its State — fresh sessions,
// trails past a small trail limit (whose buffer holds a few more visits
// than the trail), mid-history cursors, with and without an expiry.
func TestSessionAppendRecordMatchesState(t *testing.T) {
	rm := resolvedPaperModel(t)
	rng := rand.New(rand.NewSource(16))
	expiries := []time.Time{{}, time.Date(2030, 1, 2, 3, 4, 5, 6, time.FixedZone("", 3600))}
	trimmed, midHistory := 0, 0
	for i := 0; i < 300; i++ {
		s := navigation.NewSession(rm)
		s.SetTrailLimit([]int{0, 4, 9}[rng.Intn(3)])
		for steps := rng.Intn(60); steps > 0; steps-- {
			switch p := rng.Intn(10); {
			case p < 2:
				rc := rm.Contexts[rng.Intn(len(rm.Contexts))]
				if len(rc.Members) > 0 {
					_ = s.EnterContext(rc.Name, rc.Members[rng.Intn(len(rc.Members))].ID())
				}
			case p < 5:
				_ = s.Next()
			case p < 6:
				_ = s.Prev()
			case p < 7:
				_ = s.Up()
			case p < 9:
				_ = s.Back()
			default:
				_ = s.Forward()
			}
		}
		st := s.State()
		if len(st.History) == 4 || len(st.History) == 9 {
			trimmed++
		}
		if st.Cursor < len(st.Nav)-1 {
			midHistory++
		}
		for _, at := range expiries {
			want := navigation.AppendRecord([]byte("dst"), navigation.Record{State: st, Expires: at})
			if got := s.AppendRecord([]byte("dst"), at); !slices.Equal(got, want) {
				t.Fatalf("session %d: AppendRecord\n%q\nthe record of its State\n%q", i, got, want)
			}
		}
	}
	if trimmed == 0 || midHistory == 0 {
		t.Fatalf("the walks reached %d trails at their limit and %d mid-history cursors", trimmed, midHistory)
	}
}

// TestSessionAppendRecordAllocs: encoding a session's record allocates
// the record and nothing else — no copy of its lists, no string table —
// on a 24-visit trail and on one at the trail limit.
func TestSessionAppendRecordAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops items at random")
	}
	expires := time.Now().Add(time.Hour)
	for _, visits := range []int{24, trailLimit} {
		s := walkedSession(t, visits)
		if avg := testing.AllocsPerRun(200, func() { _ = s.AppendRecord(nil, expires) }); avg != 1 {
			t.Errorf("trail of %d: AppendRecord allocates %.0f per record, want 1", visits, avg)
		}
	}
}

// benchmarkRecords runs fn over a 24-visit trail (the mean of the
// benchmark's resume population) and a trail at the trail limit.
func benchmarkRecords(b *testing.B, fn func(b *testing.B, rec navigation.Record)) {
	for _, visits := range []int{24, trailLimit} {
		rec := navigation.Record{State: walkedState(b, visits), Expires: time.Now().Add(30 * time.Minute)}
		b.Run(fmt.Sprintf("trail=%d", visits), func(b *testing.B) { fn(b, rec) })
	}
}

func BenchmarkSessionRecordAppend(b *testing.B) {
	benchmarkRecords(b, func(b *testing.B, rec navigation.Record) {
		var raw []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			raw = navigation.AppendRecord(nil, rec)
		}
		b.ReportMetric(float64(len(raw)), "B/record")
	})
}

func BenchmarkSessionRecordFromSession(b *testing.B) {
	for _, visits := range []int{24, trailLimit} {
		s := walkedSession(b, visits)
		expires := time.Now().Add(30 * time.Minute)
		b.Run(fmt.Sprintf("trail=%d", visits), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = s.AppendRecord(nil, expires)
			}
		})
	}
}

func BenchmarkSessionRecordParse(b *testing.B) {
	benchmarkRecords(b, func(b *testing.B, rec navigation.Record) {
		raw := navigation.AppendRecord(nil, rec)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := navigation.ParseRecord(raw); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSessionRecordRestore restores a walked session's state into a
// new session over its model, as rehydrating a returning visitor does.
func BenchmarkSessionRecordRestore(b *testing.B) {
	for _, visits := range []int{24, trailLimit} {
		s := walkedSession(b, visits)
		rm, st := s.Model(), s.State()
		b.Run(fmt.Sprintf("trail=%d", visits), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := navigation.RestoreSession(rm, st); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
