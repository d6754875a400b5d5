package analytics

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/museum"
	"repro/internal/navigation"
)

func TestRecordAndSnapshot(t *testing.T) {
	r := NewRecorder(RecorderConfig{})
	for i := 0; i < 3; i++ {
		r.Record("ByAuthor:picasso", "guitar", "guernica")
	}
	r.Record("ByAuthor:picasso", EntryFrom, "guitar")
	r.Record("ByMovement:cubism", "guitar", "avignon")

	st := r.Stats()
	if st.Recorded != 5 || st.SampledOut != 0 || st.Dropped != 0 {
		t.Fatalf("stats = %+v, want 5 recorded, none sampled or dropped", st)
	}

	g := BuildGraph(r.Snapshot())
	if g.Hops != 5 {
		t.Errorf("graph hops = %d, want 5", g.Hops)
	}
	cg := g.Contexts["ByAuthor:picasso"]
	if cg == nil {
		t.Fatal("no ByAuthor:picasso context in graph")
	}
	if got := cg.NextCount("guitar", "guernica"); got != 3 {
		t.Errorf("guitar->guernica = %d, want 3", got)
	}
	if got := cg.Entries["guitar"]; got != 1 {
		t.Errorf("entries at guitar = %d, want 1", got)
	}
	if other := g.Contexts["ByMovement:cubism"]; other == nil || other.Hops != 1 {
		t.Errorf("ByMovement:cubism = %+v, want 1 hop", other)
	}
}

func TestRecordSampling(t *testing.T) {
	r := NewRecorder(RecorderConfig{SampleRate: 4})
	for i := 0; i < 100; i++ {
		r.Record("C", "a", "b") // one key, so one shard's tick counter
	}
	st := r.Stats()
	if st.Recorded != 25 || st.SampledOut != 75 {
		t.Errorf("stats = %+v, want 25 recorded / 75 sampled out", st)
	}
	g := BuildGraph(r.Snapshot())
	if got := g.Contexts["C"].NextCount("a", "b"); got != 25 {
		t.Errorf("sampled count = %d, want 25", got)
	}
}

func TestRecordTableOverflowDrops(t *testing.T) {
	r := NewRecorder(RecorderConfig{Shards: 1, SlotsPerShard: 1})
	r.Record("C", "a", "b")
	r.Record("C", "a", "c") // no slot left anywhere in the single shard
	st := r.Stats()
	if st.Recorded != 1 || st.Dropped != 1 {
		t.Errorf("stats = %+v, want 1 recorded / 1 dropped", st)
	}
	if hops := r.Snapshot(); len(hops) != 1 || hops[0].To != "b" {
		t.Errorf("snapshot = %+v, want only the first hop", hops)
	}
}

// TestSizedRecorderDropsNothing: a recorder sized for the 50/20/8
// museum counts a walk over every edge and every entry of every context
// without dropping a hop, at any shard count.
func TestSizedRecorderDropsNothing(t *testing.T) {
	store := museum.Synthetic(museum.SyntheticSpec{Painters: 50, PaintingsPerPainter: 20, Movements: 8, Seed: 1})
	rm, err := museum.Model(navigation.IndexedGuidedTour{}).Resolve(store)
	if err != nil {
		t.Fatal(err)
	}
	type hop struct{ ctx, from, to string }
	var hops []hop
	for _, rc := range rm.Contexts {
		for _, e := range rc.Edges() {
			hops = append(hops, hop{rc.Name, e.From, e.To})
		}
		if rc.Def.Access.HasHub() {
			hops = append(hops, hop{rc.Name, EntryFrom, navigation.HubID})
		}
		for _, m := range rc.Members {
			hops = append(hops, hop{rc.Name, EntryFrom, m.ID()})
		}
	}
	for _, shards := range []int{0, 1, 2, 8} {
		r := NewRecorder(RecorderConfig{Shards: shards, SlotsPerShard: SlotsPerShardFor(len(hops), shards)})
		for _, h := range hops {
			r.Record(h.ctx, h.from, h.to)
		}
		if st := r.Stats(); st.Dropped != 0 || st.Recorded != uint64(len(hops)) {
			t.Errorf("shards=%d: stats = %+v, want all %d hops recorded", shards, st, len(hops))
		}
	}
}

// TestRecordZeroAllocs is the hot-path guard the tentpole demands:
// recording a hop — new or hot — allocates nothing.
func TestRecordZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	r := NewRecorder(RecorderConfig{})
	r.Record("ByAuthor:picasso", "guitar", "guernica")
	if avg := testing.AllocsPerRun(1000, func() {
		r.Record("ByAuthor:picasso", "guitar", "guernica")
	}); avg != 0 {
		t.Errorf("hot-edge record = %.2f allocs/op, want 0", avg)
	}
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("node%02d", i)
	}
	i := 0
	if avg := testing.AllocsPerRun(1000, func() {
		r.Record("C", keys[i%64], keys[(i+1)%64])
		i++
	}); avg != 0 {
		t.Errorf("varied record = %.2f allocs/op, want 0", avg)
	}
}

// TestRecorderConcurrent hammers one recorder from many goroutines —
// hot edges, distinct edges and concurrent snapshots — and checks no
// hop is lost or double-counted (run under -race for the memory-model
// guarantee).
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(RecorderConfig{})
	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mine := fmt.Sprintf("mine%d", g)
			for i := 0; i < perG; i++ {
				r.Record("C", "hot", "edge") // contended slot
				r.Record("C", mine, "edge")  // per-goroutine slot
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { // concurrent reader
		defer close(done)
		for i := 0; i < 50; i++ {
			BuildGraph(r.Snapshot())
			_ = r.Stats()
		}
	}()
	wg.Wait()
	<-done

	if st := r.Stats(); st.Recorded != 2*goroutines*perG {
		t.Errorf("recorded = %d, want %d", st.Recorded, 2*goroutines*perG)
	}
	g := BuildGraph(r.Snapshot())
	if got := g.Contexts["C"].NextCount("hot", "edge"); got != goroutines*perG {
		t.Errorf("hot edge = %d, want %d", got, goroutines*perG)
	}
}

// TestShardIsTwoCacheLines: a shard is 128 bytes, with its counters in
// the second 64, so the allocator's 128-byte alignment keeps the table
// header Record reads off the line Record writes.
func TestShardIsTwoCacheLines(t *testing.T) {
	if size := unsafe.Sizeof(shard{}); size != 128 {
		t.Errorf("shard is %d bytes, want 128", size)
	}
	if off := unsafe.Offsetof(shard{}.recorded); off != 64 {
		t.Errorf("shard counters start at byte %d, want 64", off)
	}
}
