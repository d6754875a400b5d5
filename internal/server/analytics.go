package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analytics"
	"repro/internal/navigation"
)

// DefaultAdaptInterval is how often the background adaptation loop
// recomputes access structures from recorded traffic.
const DefaultAdaptInterval = 30 * time.Second

// WithAnalytics installs a trail recorder: every navigation hop a
// request performs (page-to-page moves within a context, entries into
// one) is counted by rec, at near-zero request cost. The recorder feeds
// Adapt and the /stats endpoint; without one both are disabled.
func WithAnalytics(rec *analytics.Recorder) Option {
	return func(s *Server) { s.rec = rec }
}

// WithDeriveConfig tunes the derivation layer Adapt uses (sample
// floors, landmark promotion threshold, circular tours). Zero fields
// keep the analytics package defaults.
func WithDeriveConfig(cfg analytics.Config) Option {
	return func(s *Server) { s.deriveCfg = cfg }
}

// adaptState is the adaptation loop's bookkeeping, split from Server's
// hot fields: the cycle lock, the completed-cycle generation and the
// derived-structure gauge.
type adaptState struct {
	mu sync.Mutex

	generation atomic.Uint64
	derived    atomic.Uint64
}

// Adapt runs one adaptation cycle: snapshot the recorder, fold the
// hops into a transition graph, derive adaptive tours, and swap every
// family whose derived structure changed through one batched
// SetAccessStructures — PR 3's rebuild diff then invalidates exactly
// the contexts whose edges moved, rotating their ETags and no others.
// It returns how many per-context structures are currently derived.
// Cycles are serialized; concurrent callers queue behind the lock.
func (s *Server) Adapt() (int, error) {
	if s.rec == nil {
		return 0, errors.New("server: analytics recorder not configured")
	}
	// The whole cycle — snapshot included — runs under the lock: were
	// the snapshot taken outside it, a slow caller could install tours
	// derived from an older view over a fresher cycle's result. Nothing
	// here is on the request path, so holding the lock through the
	// derivation costs no one a page.
	s.adapt.mu.Lock()
	defer s.adapt.mu.Unlock()
	start := time.Now()
	rm := s.app.Resolved()
	g := analytics.BuildGraph(s.rec.Snapshot())
	tours := analytics.Derive(g, analytics.Infos(rm), s.deriveCfg)
	plans := 0
	for _, t := range tours {
		plans += len(t.Plans)
	}

	swaps := make(map[string]navigation.AccessStructure, len(tours))
	for family, t := range tours {
		// A steady-state cycle derives the tour the family is already
		// serving; skipping the swap skips the whole rebuild, so an
		// idle interval costs a snapshot and a DeepEqual, not a
		// re-weave. The comparison is against the *live* structure,
		// not a remembered one: an operator who swapped the family
		// back by hand gets re-adapted on the next cycle rather than
		// silently ignored.
		if cur, ok := familyAccess(rm, family).(*navigation.AdaptiveTour); ok && reflect.DeepEqual(cur, t) {
			continue
		}
		swaps[family] = t
	}
	if len(swaps) > 0 {
		if _, err := s.app.SetAccessStructures(swaps); err != nil {
			return 0, err
		}
	}
	s.adapt.generation.Add(1)
	s.adapt.derived.Store(uint64(plans))
	adaptCycleDuration.Observe(time.Since(start))
	adaptCycles.Inc()
	return plans, nil
}

// familyAccess returns the access structure the family's resolved
// contexts currently serve (nil when none resolved).
func familyAccess(rm *navigation.ResolvedModel, family string) navigation.AccessStructure {
	for _, rc := range rm.Contexts {
		if rc.Def.Name == family {
			return rc.Def.Access
		}
	}
	return nil
}

// AdaptStats reports the adaptation loop's progress: how many cycles
// have completed and how many per-context structures the last cycle
// derived.
func (s *serving) AdaptStats() (generation, derived uint64) {
	return s.adapt.generation.Load(), s.adapt.derived.Load()
}

// StartAdaptation begins recomputing access structures from recorded
// traffic every interval in a background goroutine, skipping cycles
// until at least minHops hops have been recorded (the min-sample knob —
// adapting to the first three clicks of the day would thrash the
// linkbase). It returns an idempotent stop function; cmd/navserve ties
// it to HTTP shutdown like the session janitor. A cycle that fails
// (a concurrent model mutation, say) is skipped, not fatal: the next
// tick retries.
func (s *Server) StartAdaptation(interval time.Duration, minHops uint64) (stop func()) {
	done := make(chan struct{})
	ticker := time.NewTicker(interval)
	go func() {
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				if s.rec == nil || s.rec.Stats().Recorded < minHops {
					continue
				}
				_, _ = s.Adapt()
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// recordHop counts one observed navigation step: a move between two
// nodes of one context, or an entry when the visitor arrived from
// outside the context (a fresh session, another context, a direct
// link). Reloads and revalidations — the same node through the same
// context — are not traversals and are not counted.
//
//repro:hotpath
func (s *serving) recordHop(prev navigation.Visit, ctx, node string) {
	if prev.Context == ctx {
		if prev.NodeID == node {
			return
		}
		s.rec.Record(ctx, prev.NodeID, node)
		return
	}
	s.rec.Record(ctx, analytics.EntryFrom, node)
}

// statsContext is the wire form of one context's traffic summary.
type statsContext struct {
	Hops     uint64                 `json:"hops"`
	TopNodes []analytics.NodeCount  `json:"top_nodes"`
	TopEdges []analytics.Transition `json:"top_edges"`
	Entries  []analytics.NodeCount  `json:"top_entries,omitempty"`
}

// serveStats answers GET /stats: the recorder counters, the adaptation
// loop's progress, and a per-context traffic summary (top nodes, edges
// and entries) aggregated from the live recorder — the operator's view
// of what the adaptation layer is learning.
//
//repro:nostore
func (s *serving) serveStats(w http.ResponseWriter) {
	// Live counters: an intermediary caching them would freeze the
	// operator's view of what the adaptation layer is learning.
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("Content-Type", "application/json")
	if s.rec == nil {
		_ = json.NewEncoder(w).Encode(struct {
			Analytics bool `json:"analytics"`
		}{false})
		return
	}
	const topK = 5
	g := analytics.BuildGraph(s.rec.Snapshot())
	contexts := make(map[string]statsContext, len(g.Contexts))
	for name, cg := range g.Contexts {
		contexts[name] = statsContext{
			Hops:     cg.Hops,
			TopNodes: cg.TopNodes(topK),
			TopEdges: cg.TopEdges(topK),
			Entries:  cg.TopEntries(topK),
		}
	}
	gen, derived := s.AdaptStats()
	payload := struct {
		Analytics         bool                    `json:"analytics"`
		SampleRate        int                     `json:"sample_rate"`
		Stats             analytics.Stats         `json:"recorder"`
		AdaptGeneration   uint64                  `json:"adapt_generation"`
		DerivedStructures uint64                  `json:"derived_structures"`
		Contexts          map[string]statsContext `json:"contexts"`
	}{
		Analytics:         true,
		SampleRate:        s.rec.SampleRate(),
		Stats:             s.rec.Stats(),
		AdaptGeneration:   gen,
		DerivedStructures: derived,
		Contexts:          contexts,
	}
	_ = json.NewEncoder(w).Encode(payload)
}
