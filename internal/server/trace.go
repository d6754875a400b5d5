// Request-lifecycle tracing and profile labeling for the serving
// stack: the server-side half of the internal/obs tracer. The obs
// record path is clock-free by contract (navlint's hotpath rule), so
// everything here that reads time.Since lives in unannotated helpers
// and hands the recorder offsets — mirroring how ServeHTTP times
// observeRequest.

package server

import (
	"net/http"
	"runtime/pprof"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// WithTracing records every request's lifecycle into t: phases on a
// pooled span slot, kept into the trace ring when sampled or slower
// than the tracer's threshold (GET /api/v1/traces, navctl traces).
// The idle path — unsampled, fast — allocates nothing; the allocation
// guard covers the hot cached serve with tracing enabled.
func WithTracing(t *obs.Tracer) Option {
	return func(s *Server) { s.tracer = t }
}

// WithProfileLabels labels CPU profile samples with the request's
// route class and plane (serve/api/ops) via runtime/pprof.Do around
// the dispatch, so a profile from the -pprof listener segments by
// surface. Labeling costs a per-request context allocation, which is
// why it is an option tied to profiling rather than always on.
func WithProfileLabels() Option {
	return func(s *Server) { s.profileLabels = true }
}

// profileLabels is one precomputed label set per route class, so the
// per-request work is a lookup, not label construction.
var profileLabels [numRoutes]pprof.LabelSet

func init() {
	for rc := routeClass(0); rc < numRoutes; rc++ {
		plane := "serve"
		switch limitClassOf[rc] {
		case limitAPI:
			plane = "api"
		case limitOps:
			plane = "ops"
		}
		profileLabels[rc] = pprof.Labels("route", routeNames[rc], "plane", plane)
	}
}

// reqTrace is the per-request tracing handle threaded through the
// serve path. The zero value (tracing off) makes every method a nil
// check and nothing else, so the untraced configuration pays one
// predictable branch per instrumentation point. It is passed by value:
// two words plus the start time, no per-request allocation.
type reqTrace struct {
	t     *obs.ReqTrace
	start time.Time
}

// now returns the current offset from the request's start — the one
// place the serve path reads the clock for tracing.
func (rt reqTrace) now() time.Duration {
	if rt.t == nil {
		return 0
	}
	return time.Since(rt.start)
}

// span records a completed phase that began at offset from.
func (rt reqTrace) span(p obs.Phase, from time.Duration) {
	if rt.t == nil {
		return
	}
	rt.t.Span(p, from, time.Since(rt.start))
}

// traceparent renders the outgoing header value, "" when tracing is
// off (callers only render on propagated, sampled or shed paths —
// never for the idle case).
func (rt reqTrace) traceparent() string {
	if rt.t == nil {
		return ""
	}
	return rt.t.Traceparent()
}

// beginTrace starts a request's trace: a pooled slot, the sampling
// decision, and — when the caller sent W3C trace context — adoption of
// the upstream trace id.
func (s *serving) beginTrace(r *http.Request, start time.Time) reqTrace {
	if s.tracer == nil {
		return reqTrace{}
	}
	rt := reqTrace{t: s.tracer.Begin(), start: start}
	if tp := r.Header.Get("Traceparent"); tp != "" {
		rt.t.AdoptParent(tp)
	}
	return rt
}

// finishTrace ends the request's trace with its route, status and
// total duration; the tracer keeps it (sampled or slow) or recycles
// the slot.
func (s *serving) finishTrace(rt reqTrace, rc routeClass, path string, status int, total time.Duration) {
	if rt.t == nil {
		return
	}
	s.tracer.Finish(rt.t, routeNames[rc], path, status, total)
}

// cachePhase maps a page-cache outcome onto its trace phase.
var cachePhase = [...]obs.Phase{
	core.CacheHit:  obs.PhaseCacheHit,
	core.CacheJoin: obs.PhaseCacheJoin,
	core.CacheMiss: obs.PhaseCacheMiss,
}
