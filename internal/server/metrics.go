package server

import (
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/analytics"
	"repro/internal/obs"
)

// routeClass buckets request paths for the request metrics: one label
// value per serving surface, so a latency regression or an error burst
// can be attributed to pages vs. documents vs. the control plane
// without per-path cardinality.
type routeClass uint8

const (
	routeSiteMap routeClass = iota
	routePage
	routeDoc
	routeTraversal
	routeSession
	routeHealth
	routeReady
	routeStats
	routeMetrics
	routeArcs
	routeAPI
	routeOther
	numRoutes
)

var routeNames = [numRoutes]string{
	"sitemap", "page", "doc", "traversal", "session",
	"health", "ready", "stats", "metrics", "arcs", "api", "other",
}

// classify maps a request path onto its route class. It mirrors the
// dispatch in ServeHTTP/route exactly and allocates nothing — it runs
// on every request.
func classify(path string) routeClass {
	if path == "/api" || strings.HasPrefix(path, "/api/") {
		return routeAPI
	}
	path = strings.TrimPrefix(path, "/")
	switch {
	case path == "":
		return routeSiteMap
	case path == "links.xml", strings.HasPrefix(path, "data/"):
		return routeDoc
	case path == "session", path == "history":
		return routeSession
	case path == "healthz":
		return routeHealth
	case path == "readyz":
		return routeReady
	case path == "stats":
		return routeStats
	case path == "metrics":
		return routeMetrics
	case path == "arcs":
		return routeArcs
	case strings.HasPrefix(path, "go/"):
		return routeTraversal
	case strings.HasSuffix(path, ".html"):
		return routePage
	}
	return routeOther
}

// statusClasses are the status buckets of the request counter.
var statusClasses = [4]string{"2xx", "3xx", "4xx", "5xx"}

// statusIdx buckets a status code; anything outside 2xx–5xx (a 1xx
// would be a bug in this server) lands in the 5xx bucket, where an
// operator will look at it.
func statusIdx(status int) int {
	i := status/100 - 2
	if i < 0 || i >= len(statusClasses) {
		return len(statusClasses) - 1
	}
	return i
}

// Request metrics, fully preallocated at init so the record path is an
// array index and an atomic add — no map lookups, no label rendering.
var (
	httpRequests    [numRoutes][len(statusClasses)]*obs.Counter
	httpNotModified [numRoutes]*obs.Counter
	httpDuration    [numRoutes]*obs.Histogram
	httpShed        [numRoutes]*obs.Counter
)

// Flush and adaptation instrumentation (the per-instance queue depth is
// an inline gauge in serveMetrics; these are process-wide totals).
var (
	flushBatchDuration = obs.Default.Histogram("navserve_flush_batch_duration_seconds",
		"Time one write-behind flush batch took to reach the store.")
	flushBatches = obs.Default.Counter("navserve_flush_batches_total",
		"Write-behind flush batches drained.")
	flushWrites = obs.Default.Counter("navserve_flush_writes_total",
		"Session records written (or tombstoned) by flush batches.")

	adaptCycleDuration = obs.Default.Histogram("navserve_adapt_cycle_duration_seconds",
		"Time one adaptation cycle took: snapshot, graph, derive, swap.")
	adaptCycles = obs.Default.Counter("navserve_adapt_cycles_total",
		"Completed adaptation cycles.")
)

// Resilience instrumentation: persistence failures, their retries, and
// retry-queue drops (the degraded bit and queue depth are per-instance
// gauges in serveMetrics).
var (
	persistErrors = obs.Default.Counter("navserve_persist_errors_total",
		"Session persistence operations that failed (store errors).")
	persistRetries = obs.Default.Counter("navserve_persist_retries_total",
		"Failed session writes rescheduled for a backoff retry.")
	persistRetryDropped = obs.Default.Counter("navserve_persist_retry_dropped_total",
		"Retry-queue entries dropped oldest-first because the queue was full.")
)

func init() {
	const (
		reqHelp  = "HTTP requests by route class and status class."
		nmHelp   = "Conditional requests answered 304 Not Modified, by route class."
		durHelp  = "Request latency by route class."
		shedHelp = "Requests shed by the in-flight limiter before any work, by route class."
	)
	for rc := routeClass(0); rc < numRoutes; rc++ {
		route := routeNames[rc]
		for i, code := range statusClasses {
			httpRequests[rc][i] = obs.Default.Counter(
				"navserve_http_requests_total", reqHelp, "route", route, "code", code)
		}
		httpNotModified[rc] = obs.Default.Counter(
			"navserve_http_not_modified_total", nmHelp, "route", route)
		httpDuration[rc] = obs.Default.Histogram(
			"navserve_http_request_duration_seconds", durHelp, "route", route)
		httpShed[rc] = obs.Default.Counter(
			"navserve_http_shed_total", shedHelp, "route", route)
	}
}

// observeRequest records one finished request: status-classed counter,
// the 200-vs-304 split, and the latency histogram. It runs after every
// response on the serve path, so it carries the hot-path contract: the
// clock was read by the caller, and everything here is atomic adds.
//
//repro:hotpath
func observeRequest(rc routeClass, status int, d time.Duration) {
	httpRequests[rc][statusIdx(status)].Inc()
	if status == http.StatusNotModified {
		httpNotModified[rc].Inc()
	}
	httpDuration[rc].Observe(d)
}

// statusWriter records the status a handler writes so observeRequest
// can class it. Instances are pooled: a per-request allocation here
// would show up in the hot-serve allocation guard.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(status int) {
	if sw.status == 0 {
		sw.status = status
	}
	sw.ResponseWriter.WriteHeader(status)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(p)
}

var statusWriterPool = sync.Pool{New: func() any { return &statusWriter{} }}

// serveMetrics answers GET /metrics with the Prometheus text exposition
// of everything instrumented: the default registry (request, cache,
// rebuild, flush, storage and adapt series) plus this server instance's
// point-in-time gauges. Like /healthz it is bearer-exempt — scrapers
// are not operators — and carries no-store so an intermediary can never
// serve yesterday's vitals.
//
//repro:nostore
func (s *serving) serveMetrics(w http.ResponseWriter) {
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder
	_ = obs.Default.WritePrometheus(&b)
	s.writeInstanceGauges(&b)
	_, _ = io.WriteString(w, b.String())
}

// writeInstanceGauges renders the per-instance vitals as scrapeable
// gauges. These live on the Server (several can coexist in one
// process), so they render inline rather than register globally.
func (s *serving) writeInstanceGauges(b *strings.Builder) {
	for _, v := range s.vitals() {
		obs.WriteGauge(b, v.gauge, v.help, v.value)
	}
}

// vital is one per-instance vital: its /healthz key, its /metrics gauge
// name and HELP text, and its current value. Every vital is a count, a
// flag or a duration in seconds; counts stay exact in a float64 far
// past any this server reaches, and JSON renders an integral float
// without a fraction, so integer /healthz keys stay integers.
type vital struct {
	key, gauge, help string
	value            float64
}

// vitals lists the instance vitals once, for /healthz and /metrics to
// render alike. Analytics and tracing vitals read zero when no recorder
// or tracer is configured.
func (s *serving) vitals() []vital {
	queued, written := s.PersistStats()
	retryQueued, retryDropped := s.RetryStats()
	degraded := 0.0
	if d, _ := s.Degraded(); d {
		degraded = 1
	}
	var rec analytics.Stats
	if s.rec != nil {
		rec = s.rec.Stats()
	}
	adaptGen, derived := s.AdaptStats()
	var traces uint64
	if s.tracer != nil {
		traces = s.tracer.Ring().Total()
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return []vital{
		{"sessions", "navserve_sessions", "Live visitor sessions.", float64(s.sessions.len())},
		{"cached_pages", "navserve_cached_pages", "Woven pages currently cached.", float64(s.read.CachedPages())},
		{"cache_generation", "navserve_cache_generation", "Woven-page cache generation; advances with every model mutation.", float64(s.read.CacheGeneration())},
		{"persist_queue", "navserve_flush_queue_depth", "Dirty sessions awaiting their write-behind flush.", float64(queued)},
		{"persist_flushed", "navserve_persist_writes", "Session records written to the persistence backend since start.", float64(written)},
		{"persist_retry_queue", "navserve_persist_retry_queue_depth", "Failed session writes awaiting their backoff retry.", float64(retryQueued)},
		{"persist_retry_dropped", "navserve_persist_retry_dropped", "Retry-queue entries this instance dropped because the queue was full.", float64(retryDropped)},
		{"degraded", "navserve_degraded", "1 while the store-health breaker is open (persistence failing, /readyz 503).", degraded},
		{"analytics_recorded", "navserve_analytics_recorded", "Navigation hops recorded by the analytics recorder.", float64(rec.Recorded)},
		{"analytics_sampled_out", "navserve_analytics_sampled_out", "Hops skipped by sampling.", float64(rec.SampledOut)},
		{"analytics_dropped", "navserve_analytics_dropped", "Hops dropped because the recorder's tables were full.", float64(rec.Dropped)},
		{"adapt_generation", "navserve_adapt_generation", "Completed adaptation cycles on this instance.", float64(adaptGen)},
		{"derived_structures", "navserve_derived_structures", "Per-context structures the last adaptation cycle derived.", float64(derived)},
		{"mutation_events", "navserve_mutation_events", "Model mutations traced since start (GET /api/v1/events for the ring).", float64(s.read.Events().Total())},
		{"traces_kept", "navserve_traces_kept", "Request traces kept (sampled or slow) since start (GET /api/v1/traces for the ring).", float64(traces)},
		{"uptime_seconds", "navserve_uptime_seconds", "Seconds since this server was constructed.", time.Since(s.start).Seconds()},
		{"goroutines", "navserve_goroutines", "Live goroutines in the process.", float64(runtime.NumGoroutine())},
		{"heap_bytes", "navserve_heap_bytes", "Bytes of allocated heap objects.", float64(mem.HeapAlloc)},
	}
}
