// Package analytics is the telemetry half of the paper's separation
// argument turned around: if navigation really is a separately-woven
// aspect, then the access structures need not be hand-authored at all —
// they can be *derived* from how visitors actually move and swapped in
// at runtime without touching the conceptual model.
//
// The subsystem has three layers, each usable alone:
//
//   - Recorder: a near-zero-overhead trail recorder the serving path
//     calls once per navigation hop. Sharded lock-free hash tables of
//     atomic counters; no locks and no allocations on the hot path.
//   - Graph (BuildGraph): folds recorded hops into a per-context
//     transition graph — node visit counts, edge counts, entry/exit
//     frequencies, top-k queries over a small bounded heap. This is the
//     trail/transition model of "A Model of Navigation History"
//     (arXiv:1608.05444): a set of per-context trails summarized into
//     first-order transitions.
//   - Derive: compiles the graph into real navigation access structures
//     (navigation.AdaptiveTour) — a "popular next" guided tour per
//     context, landmark promotion for high-traffic nodes following
//     Vinson's landmark design guidelines (arXiv:cs/0304001), and
//     demotion of never-traversed nodes out of the tour chain.
//
// internal/server wires the three into a live adaptation loop;
// cmd/navstats runs the same pipeline offline over persisted trails.
package analytics

import (
	"runtime"
	"sync/atomic"

	"repro/internal/navigation"
)

// EntryFrom is the pseudo-source of an entry hop: a visitor arriving in
// a context from outside it (a fresh session, a context switch, a
// cross-context link) is recorded as EntryFrom -> node.
const EntryFrom = ""

// Recorder defaults; override through Config.
const (
	// DefaultSlotsPerShard is each shard's hop-table capacity. A slot
	// holds one distinct (context, from, to) triple, so the recorder
	// tracks up to shards*slots distinct edges before dropping.
	DefaultSlotsPerShard = 1024
	// maxProbes bounds the linear probe of one Record call; a table
	// region that full makes the recorder drop the hop (counted) rather
	// than degrade the request path.
	maxProbes = 64
)

// Slot states. A slot moves empty -> claiming -> ready exactly once;
// counts are only added to ready slots.
const (
	slotEmpty uint32 = iota
	slotClaiming
	slotReady
)

// RecorderConfig sizes a Recorder.
type RecorderConfig struct {
	// SampleRate records one hop in every SampleRate (1 or less records
	// everything). Sampling trades graph fidelity for one fewer shared
	// counter increment per skipped hop under extreme load.
	SampleRate int
	// Shards is the number of independent hop tables (rounded up to a
	// power of two; 0 picks a GOMAXPROCS-proportional default).
	Shards int
	// SlotsPerShard is each table's slot count (rounded up to a power
	// of two; 0 means DefaultSlotsPerShard).
	SlotsPerShard int
}

// Stats is a Recorder's counter snapshot.
type Stats struct {
	// Recorded counts hops that landed in a slot.
	Recorded uint64 `json:"recorded"`
	// SampledOut counts hops skipped by the sampling knob.
	SampledOut uint64 `json:"sampled_out"`
	// Dropped counts hops lost because a table region was full.
	Dropped uint64 `json:"dropped"`
}

// Hop is one observed transition: a visitor moved From -> To inside
// Context (From is EntryFrom when they arrived from outside), Count
// times.
type Hop struct {
	Context string `json:"context"`
	From    string `json:"from"`
	To      string `json:"to"`
	Count   uint64 `json:"count"`
}

// slot is one hop counter. The strings are written exactly once, by the
// goroutine that wins the claiming CAS, before the slot becomes ready;
// every later access only loads atomics and compares strings.
type slot struct {
	state atomic.Uint32
	count atomic.Uint64
	ctx   string
	from  string
	to    string
}

// shard is one independent hop table with its own overflow counters.
// The pad keeps neighbouring shards' hot counters off one cache line.
type shard struct {
	slots      []slot
	mask       uint64
	recorded   atomic.Uint64
	sampledOut atomic.Uint64
	dropped    atomic.Uint64
	ticks      atomic.Uint64
	_          [24]byte
}

// Recorder counts navigation hops with no locks and no allocations on
// the record path: the hop key is hashed inline (FNV-1a over the three
// strings, no concatenation), the hash picks a shard and a slot, and
// the count is one atomic increment. Distinct hops spread over
// GOMAXPROCS-proportional shards, so concurrent recording of different
// edges contends on nothing; recording the same hot edge from many
// CPUs meets at a single atomic add, still lock-free.
//
// The table is insert-only and bounded: once a probe region fills, new
// distinct hops are dropped (and counted as such) instead of growing.
// Aggregation (Snapshot) is read-only and can run concurrently with
// recording; it observes each counter at some point during its pass.
type Recorder struct {
	shards     []*shard
	shardMask  uint64
	sampleRate uint64
}

// NewRecorder builds a recorder from cfg (zero value = record every
// hop, GOMAXPROCS-proportional shards, DefaultSlotsPerShard slots).
func NewRecorder(cfg RecorderConfig) *Recorder {
	shards := cfg.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	shards = nextPow2(shards)
	slots := cfg.SlotsPerShard
	if slots <= 0 {
		slots = DefaultSlotsPerShard
	}
	slots = nextPow2(slots)
	rate := cfg.SampleRate
	if rate < 1 {
		rate = 1
	}
	r := &Recorder{
		shards:     make([]*shard, shards),
		shardMask:  uint64(shards - 1),
		sampleRate: uint64(rate),
	}
	for i := range r.shards {
		r.shards[i] = &shard{slots: make([]slot, slots), mask: uint64(slots - 1)}
	}
	return r
}

// SlotsPerShardFor sizes a recorder's tables for a site: twice the hop
// keys the resolved model can produce (one per navigation edge, one
// entry per member and per hub), spread over the given number of
// shards (0 means NewRecorder's GOMAXPROCS default). A table that fits
// every key at half load drops no hop and keeps probes short. The
// result is never below DefaultSlotsPerShard.
func SlotsPerShardFor(rm *navigation.ResolvedModel, shards int) int {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	keys := 0
	for _, rc := range rm.Contexts {
		keys += len(rc.Edges()) + len(rc.Members)
		if rc.Def.Access.HasHub() {
			keys++
		}
	}
	return max(DefaultSlotsPerShard, 2*keys/nextPow2(shards))
}

// SampleRate reports the configured sampling rate (1 = every hop).
func (r *Recorder) SampleRate() int { return int(r.sampleRate) }

// Record counts one hop. It never blocks, never allocates, and costs a
// hash, a short probe and two atomic increments — cheap enough to sit
// directly on the serve path. Hops beyond the table's capacity are
// dropped and counted, never queued.
//
//repro:hotpath
func (r *Recorder) Record(ctx, from, to string) {
	h := hashHop(ctx, from, to)
	sh := r.shards[(h>>48)&r.shardMask]
	if r.sampleRate > 1 {
		if sh.ticks.Add(1)%r.sampleRate != 0 {
			sh.sampledOut.Add(1)
			return
		}
	}
	i := h & sh.mask
	for probe := 0; probe < maxProbes; probe++ {
		s := &sh.slots[i]
		switch s.state.Load() {
		case slotReady:
			if s.ctx == ctx && s.from == from && s.to == to {
				s.count.Add(1)
				sh.recorded.Add(1)
				return
			}
		case slotEmpty:
			if s.state.CompareAndSwap(slotEmpty, slotClaiming) {
				s.ctx, s.from, s.to = ctx, from, to
				s.state.Store(slotReady)
				s.count.Add(1)
				sh.recorded.Add(1)
				return
			}
			// Lost the claim race. The winner may be inserting this very
			// key, but waiting on it would block the request path; move
			// on and let a duplicate slot absorb the hop — Snapshot
			// readers fold duplicates back together by key.
		case slotClaiming:
			// A claim is in flight a few instructions away from ready.
			// Same policy: never wait on the hot path, probe onward.
		}
		i = (i + 1) & sh.mask
	}
	sh.dropped.Add(1)
}

// Stats sums the per-shard counters.
func (r *Recorder) Stats() Stats {
	var st Stats
	for _, sh := range r.shards {
		st.Recorded += sh.recorded.Load()
		st.SampledOut += sh.sampledOut.Load()
		st.Dropped += sh.dropped.Load()
	}
	return st
}

// Snapshot collects every counted hop. It is safe against concurrent
// recording: each count is read at some instant during the pass, so the
// result is a slightly-stale but internally consistent view — exactly
// what a periodic aggregation wants. Hops that landed in duplicate
// slots (a lost claim race) appear as separate entries; BuildGraph sums
// them by key.
func (r *Recorder) Snapshot() []Hop {
	var out []Hop
	for _, sh := range r.shards {
		for i := range sh.slots {
			s := &sh.slots[i]
			if s.state.Load() != slotReady {
				continue
			}
			c := s.count.Load()
			if c == 0 {
				continue
			}
			out = append(out, Hop{Context: s.ctx, From: s.from, To: s.to, Count: c})
		}
	}
	return out
}

// hashHop is FNV-1a over the three key strings with a separator fold
// between them, computed without concatenating (no allocation).
func hashHop(ctx, from, to string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(ctx); i++ {
		h = (h ^ uint64(ctx[i])) * prime64
	}
	h = (h ^ 0x1f) * prime64
	for i := 0; i < len(from); i++ {
		h = (h ^ uint64(from[i])) * prime64
	}
	h = (h ^ 0x1f) * prime64
	for i := 0; i < len(to); i++ {
		h = (h ^ uint64(to[i])) * prime64
	}
	return h
}

// nextPow2 rounds n up to the next power of two (minimum 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
