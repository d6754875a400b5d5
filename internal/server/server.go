// Package server implements the XLink-aware user agent the paper's §6
// notes was missing in 2002 ("the browsers aren't ready to work with
// XLink yet"): an HTTP server that resolves the application's linkbase at
// request time and serves woven pages, while driving a real navigation
// session per visitor — the context trail that gives "Next" its meaning.
//
// Besides plain page GETs, the agent exposes traversal actions:
//
//	GET /go/next     follow the current context's Next edge
//	GET /go/prev     follow Previous
//	GET /go/up       go to the context's index page
//	GET /go/select?node=ID   descend from an index page to a member
//	GET /session     the visitor's context-qualified history as JSON
//	GET /healthz     liveness JSON: sessions, cache generation, backend
//	GET /stats       analytics JSON: recorder counters, adapt progress,
//	                 per-context traffic summaries
//
// The traversal endpoints answer according to the context through which
// the visitor reached the current node — the paper's §2 semantics, over
// HTTP. HEAD is supported everywhere with the same headers and no body.
//
// With WithAPIToken, a versioned control plane is mounted at /api/v1
// beside the serving routes: the navigational aspect as a wire artifact
// (GET model/contexts/structure, PUT structure and stylesheet, PATCH
// documents, POST snapshot and adapt), bearer-token guarded, with
// structured JSON errors and validate-then-mutate semantics. See api.go
// and the README's "Control plane" section.
//
// Page, linkbase and data responses carry a strong validator,
// ETag: "g<generation>-<hash>", precomputed when the content was woven
// or serialized — never per request. Invalidation is dependency-aware:
// a conditional GET keeps revalidating (304) until the specific content
// it names actually changes, not merely until any model mutation
// happens somewhere.
//
// With WithPersistence, every visitor's session reaches a storage.Store
// and is rehydrated lazily on first access — a restarted server resumes
// every context trail mid-tour. Persistence is write-behind by default:
// a step marks the session dirty in a coalescing queue and a background
// flusher writes the latest state in batches (WithFlushInterval,
// WithFlushBatch; Close runs the final drain). WithSyncPersistence
// restores the synchronous per-step write. The /healthz payload exposes
// the queue depth and total flushed writes.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/navigation"
	"repro/internal/obs"
	"repro/internal/storage"
)

// sessionCookie is the visitor-session cookie name.
const sessionCookie = "navsession"

// sessionKeyPrefix prefixes durable session records in the store.
const sessionKeyPrefix = "session/"

// Defaults for the session store; override with WithSessionTTL and
// WithSessionShards.
const (
	// DefaultSessionTTL is how long an idle visitor session is kept
	// before eviction. Every request refreshes the deadline.
	DefaultSessionTTL = 30 * time.Minute
	// DefaultSessionShards is the session store's lock-shard count.
	DefaultSessionShards = 16
	// DefaultTrailLimit caps each visitor session's trail at its
	// most-recent visits, so a long-lived crawler session cannot grow
	// its in-memory (and persisted) history without bound.
	DefaultTrailLimit = 1024
)

// Server serves a woven application. It is an http.Handler safe for
// concurrent use: pages are served through the application's woven-page
// cache and visitor sessions live in a sharded, TTL-evicting store,
// optionally written through a durable storage backend.
type Server struct {
	app      *core.App
	sessions *sessionStore
	useCache bool
	persist  storage.Store

	// flush is the write-behind persistence queue (nil when persistence
	// is off or WithSyncPersistence is set).
	flush *flusher
	// syncWrites counts the records written on the synchronous path,
	// mirroring flusher.flushed for /healthz.
	syncWrites atomic.Uint64

	// saveMu stripes serialize snapshot-then-Put per session id on the
	// synchronous path, so two concurrent saves of one session cannot
	// land in the store out of order (the stale snapshot overwriting
	// the fresh one). The write-behind path needs no stripes: one
	// flusher goroutine orders all writes.
	saveMu [16]sync.Mutex

	// health is the store-health breaker: consecutive persistence
	// failures flip the server into degraded mode (serving from cache,
	// durability queued, /readyz 503) until a write lands again.
	health *breaker

	// limits is the bounded in-flight request limiter; saturated
	// classes shed with 503 before any work is done.
	limits inflightLimiter

	// rec, when set, counts every navigation hop for the adaptation
	// pipeline; adapt tracks what the pipeline has derived so far.
	rec       *analytics.Recorder
	deriveCfg analytics.Config
	adapt     adaptState

	// apiToken guards the /api/v1 control plane (WithAPIToken); empty
	// means the control plane is disabled.
	apiToken string

	// tracer, when set, records request-lifecycle traces (WithTracing);
	// profileLabels labels CPU profile samples by route class
	// (WithProfileLabels).
	tracer        *obs.Tracer
	profileLabels bool

	// start anchors the uptime /healthz and /metrics report.
	start time.Time

	// configuration captured before the store is built
	ttl              time.Duration
	shards           int
	now              func() time.Time
	syncPersist      bool
	flushInterval    time.Duration
	flushBatch       int
	trailLimit       int
	retryLimit       int
	breakerThreshold int
}

// Option configures a Server.
type Option func(*Server)

// WithSessionTTL sets the idle session lifetime (0 disables expiry).
func WithSessionTTL(ttl time.Duration) Option {
	return func(s *Server) { s.ttl = ttl }
}

// WithSessionShards sets the session store's shard count.
func WithSessionShards(n int) Option {
	return func(s *Server) { s.shards = n }
}

// WithoutPageCache makes the server weave every page per request
// instead of serving from the woven-page cache (diagnostics and
// benchmark baselines).
func WithoutPageCache() Option {
	return func(s *Server) { s.useCache = false }
}

// WithPersistence writes every visitor session through st after each
// navigation step and rehydrates sessions lazily from st when they are
// not in memory — the durable-session half of the storage subsystem.
// Persistence is write-behind by default: steps mark the session dirty
// in a coalescing queue and a background flusher writes the latest
// state in batches (see WithFlushInterval and WithFlushBatch), so the
// request path never waits on the store. Call Close when done serving
// so the final states are flushed; use WithSyncPersistence to trade
// throughput back for per-step durability. The caller keeps ownership
// of st and closes it after the server is done serving (after Close).
func WithPersistence(st storage.Store) Option {
	return func(s *Server) { s.persist = st }
}

// WithSyncPersistence makes every navigation step encode and write the
// session record before the response is sent, instead of queueing it
// for the write-behind flusher. A crash then loses no step — at the
// old synchronous cost per request. It also makes persistence effects
// deterministic for tests.
func WithSyncPersistence() Option {
	return func(s *Server) { s.syncPersist = true }
}

// WithFlushInterval sets how often the write-behind flusher drains the
// dirty-session queue (default DefaultFlushInterval). The interval
// bounds the worst-case durability window.
func WithFlushInterval(d time.Duration) Option {
	return func(s *Server) { s.flushInterval = d }
}

// WithFlushBatch sets how many sessions one flush round writes and the
// queue depth that triggers an early flush (default DefaultFlushBatch).
func WithFlushBatch(n int) Option {
	return func(s *Server) { s.flushBatch = n }
}

// WithTrailLimit caps every visitor session's trail at its most-recent
// n visits (0 disables the cap; the default is DefaultTrailLimit).
// Navigation semantics only ever read the current position, so capping
// changes nothing a visitor can observe except a shorter /session
// history.
func WithTrailLimit(n int) Option {
	return func(s *Server) { s.trailLimit = n }
}

// WithRetryLimit bounds the failed-write retry queue (default
// DefaultRetryLimit): while the store is down, up to n sessions keep
// their pending states queued for re-attempt with capped exponential
// backoff; past n the oldest entry is dropped and counted.
func WithRetryLimit(n int) Option {
	return func(s *Server) { s.retryLimit = n }
}

// WithBreakerThreshold sets how many consecutive persistence failures
// flip the server into degraded mode (default
// DefaultBreakerThreshold).
func WithBreakerThreshold(n int) Option {
	return func(s *Server) { s.breakerThreshold = n }
}

// withClock injects a fake clock for TTL tests.
func withClock(now func() time.Time) Option {
	return func(s *Server) { s.now = now }
}

// New returns a server over the given application. A server built with
// WithPersistence owns a background flusher: call Close when done
// serving so pending session states reach the store.
func New(app *core.App, opts ...Option) *Server {
	s := &Server{
		app:           app,
		useCache:      true,
		ttl:           DefaultSessionTTL,
		shards:        DefaultSessionShards,
		flushInterval: DefaultFlushInterval,
		flushBatch:    DefaultFlushBatch,
		trailLimit:    DefaultTrailLimit,
		retryLimit:    DefaultRetryLimit,
		start:         time.Now(),
	}
	for _, opt := range opts {
		opt(s)
	}
	s.health = newBreaker(s.breakerThreshold)
	s.sessions = newSessionStore(s.shards, s.ttl, s.now)
	if s.persist != nil && !s.syncPersist {
		s.flush = newFlusher(s.persist, s.sessions.ttl, s.sessions.now, s.flushBatch, s.flushInterval, s.retryLimit, s.health)
	}
	if s.persist != nil {
		// An expired session's durable record must die with it, or the
		// backing store would accumulate (and later resurrect) every
		// abandoned trail. On the write-behind path the delete is a
		// queued tombstone, so it cannot race a pending state write.
		s.sessions.onEvict = func(id string) {
			if s.flush != nil {
				s.flush.enqueueDelete(id)
				return
			}
			if err := s.persist.Delete(sessionKeyPrefix + id); err != nil {
				persistErrors.Inc()
				s.health.fail("session delete failing: " + err.Error())
			} else {
				s.health.ok()
			}
		}
	}
	return s
}

// Close flushes the write-behind persistence queue and stops its
// background goroutine. It does not close the storage backend — the
// caller owns that — and a server without persistence needs no Close.
// Safe to call more than once.
func (s *Server) Close() error {
	if s.flush != nil {
		s.flush.close()
	}
	return nil
}

// FlushSessions synchronously drains the write-behind queue, so a
// caller (an operator endpoint, a test) can force durability without
// shutting down. It is a no-op under synchronous persistence.
func (s *Server) FlushSessions() {
	if s.flush != nil {
		s.flush.flushNow()
	}
}

// PersistStats reports the write-behind queue depth and how many
// records have been written to the persistence backend so far (both
// paths). Zeroes when persistence is off.
func (s *Server) PersistStats() (queued int, written uint64) {
	if s.flush != nil {
		return s.flush.depth(), s.flush.flushed.Load()
	}
	return 0, s.syncWrites.Load()
}

// EvictExpiredSessions drops every session idle past its TTL and
// returns how many were evicted. Expired sessions are also dropped
// lazily on access; a long-running server calls this periodically
// (StartJanitor does so on a ticker) so abandoned sessions cannot
// accumulate between visits.
func (s *Server) EvictExpiredSessions() int { return s.sessions.evictExpired() }

// StartJanitor begins sweeping expired sessions every interval in a
// background goroutine and returns a stop function (idempotent). Wire
// the stop into the HTTP server's shutdown (cmd/navserve registers it
// with RegisterOnShutdown) so the sweeper does not outlive the server.
func (s *Server) StartJanitor(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	ticker := time.NewTicker(interval)
	go func() {
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				s.sessions.evictExpired()
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// ServeHTTP implements http.Handler. The handler is method-aware per
// route class: /api/... dispatches into the control plane, whose
// resources declare their own methods (PUT, PATCH, POST where they
// mutate); every serving route supports GET and HEAD — HEAD responses
// carry the same headers (including ETag and Content-Length) with no
// body — and answers anything else with 405 and an Allow header (as
// structured JSON on the operational endpoints, matching the /api/v1
// contract).
//
// Every request is observed on the way out: route class, status class,
// the 200-vs-304 split and a latency histogram (see metrics.go and
// GET /metrics). The status wrapper is pooled and the record path is
// atomic adds, so instrumentation adds no allocation to the hot serve.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rc := classify(r.URL.Path)
	rt := s.beginTrace(r, start)
	// Overload protection sheds before any work — no session lookup, no
	// cache touch, no store read happens for a refused request.
	lc := limitClassOf[rc]
	if !s.limits.acquire(lc) {
		// The shed 503 carries the trace context even though the trace
		// is usually not kept: an operator correlating a Retry-After
		// burst gets the id for free, and a shed slower than the slow
		// threshold (a stalled write) is captured like any other.
		shed(w, rt.traceparent())
		httpShed[rc].Inc()
		total := time.Since(start)
		observeRequest(rc, http.StatusServiceUnavailable, total)
		s.finishTrace(rt, rc, r.URL.Path, http.StatusServiceUnavailable, total)
		return
	}
	defer s.limits.release(lc)
	rt.span(obs.PhaseAdmit, 0)
	// Trace context is propagated on the response when the caller asked
	// for it (sent a traceparent) or the trace is sampled anyway; the
	// idle unsampled case skips the header so the hot serve stays
	// allocation-free. Slow-captured traces of header-less requests are
	// still joinable through the ring's path and timestamp.
	if rt.t != nil && (rt.t.HasParent() || rt.t.Sampled()) {
		w.Header().Set("Traceparent", rt.t.Traceparent())
	}
	sw := statusWriterPool.Get().(*statusWriter)
	sw.ResponseWriter, sw.status = w, 0
	if s.profileLabels {
		pprof.Do(r.Context(), profileLabels[rc], func(context.Context) {
			s.dispatch(sw, r, rc, rt)
		})
	} else {
		s.dispatch(sw, r, rc, rt)
	}
	status := sw.status
	if status == 0 {
		status = http.StatusOK
	}
	sw.ResponseWriter = nil
	statusWriterPool.Put(sw)
	total := time.Since(start)
	observeRequest(rc, status, total)
	s.finishTrace(rt, rc, r.URL.Path, status, total)
}

// dispatch routes one admitted request to its plane: the control
// plane's method-aware resources, or the GET/HEAD serving surface.
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request, rc routeClass, rt reqTrace) {
	if rc == routeAPI {
		s.serveAPI(w, r, rt)
		return
	}
	switch r.Method {
	case http.MethodGet:
		s.route(w, r, rt)
	case http.MethodHead:
		hw := &headWriter{inner: w}
		s.route(hw, r, rt)
		hw.finish()
	default:
		s.methodNotAllowed(w, r)
	}
}

// methodNotAllowed answers a non-GET/HEAD request on a serving route.
// The operational endpoints follow the /api/v1 contract — structured
// JSON error, no-store — so a prober speaking the API convention gets
// the same shape everywhere; plain routes keep the plain-text 405.
func (s *Server) methodNotAllowed(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Allow", "GET, HEAD")
	switch r.URL.Path {
	case "/healthz", "/readyz", "/stats", "/metrics":
		w.Header().Set("Cache-Control", "no-store")
		apiError(w, http.StatusMethodNotAllowed,
			"method %s not allowed on %s (allow: GET, HEAD)", r.Method, r.URL.Path)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// route dispatches one GET/HEAD request.
func (s *Server) route(w http.ResponseWriter, r *http.Request, rt reqTrace) {
	path := strings.TrimPrefix(r.URL.Path, "/")
	switch {
	case path == "":
		s.serveSiteMap(w)
	case path == "links.xml":
		s.serveXML(w, r, "links.xml", rt)
	case strings.HasPrefix(path, "data/"):
		s.serveXML(w, r, strings.TrimPrefix(path, "data/"), rt)
	case path == "session":
		s.serveSession(w, r, rt)
	case path == "history":
		s.serveHistory(w, r, rt)
	case path == "healthz":
		s.serveHealth(w)
	case path == "readyz":
		s.serveReady(w)
	case path == "stats":
		s.serveStats(w)
	case path == "metrics":
		s.serveMetrics(w)
	case path == "arcs":
		s.serveArcs(w, r)
	case strings.HasPrefix(path, "go/"):
		s.serveTraversal(w, r, strings.TrimPrefix(path, "go/"), rt)
	case strings.HasSuffix(path, ".html"):
		s.servePage(w, r, path, rt)
	default:
		http.NotFound(w, r)
	}
}

// headWriter turns a GET handler into a HEAD one: headers and status
// pass through, the body is counted but discarded, and finish stamps
// the counted length as Content-Length before the header goes out.
type headWriter struct {
	inner  http.ResponseWriter
	status int
	body   int
}

func (hw *headWriter) Header() http.Header { return hw.inner.Header() }

func (hw *headWriter) WriteHeader(status int) {
	// Deferred to finish so Content-Length can still be set.
	if hw.status == 0 {
		hw.status = status
	}
}

func (hw *headWriter) Write(p []byte) (int, error) {
	if hw.status == 0 {
		hw.status = http.StatusOK
	}
	hw.body += len(p)
	return len(p), nil
}

// finish emits the response head: the handler's status and, when a body
// was produced and the handler did not set its own length, the length a
// GET would have had.
func (hw *headWriter) finish() {
	if hw.status == 0 {
		hw.status = http.StatusOK
	}
	if hw.body > 0 && hw.inner.Header().Get("Content-Length") == "" {
		hw.inner.Header().Set("Content-Length", strconv.Itoa(hw.body))
	}
	hw.inner.WriteHeader(hw.status)
}

// etagMatches reports whether an If-None-Match header value matches the
// given strong ETag ("*" matches anything; weak prefixes are ignored
// per RFC 9110's weak comparison, which is what If-None-Match uses).
// The candidate list is walked in place — a revalidation request on the
// hot path must not allocate a slice per header.
//
//repro:hotpath
func etagMatches(ifNoneMatch, etag string) bool {
	target := strings.TrimPrefix(etag, "W/")
	rest := ifNoneMatch
	for rest != "" {
		candidate := rest
		if i := strings.IndexByte(rest, ','); i >= 0 {
			candidate, rest = rest[:i], rest[i+1:]
		} else {
			rest = ""
		}
		candidate = strings.TrimSpace(candidate)
		candidate = strings.TrimPrefix(candidate, "W/")
		if candidate == "*" || candidate == target {
			return true
		}
	}
	return false
}

// writeValidated writes a body whose ETag and Content-Length were
// precomputed at weave/serialization time, answering 304 Not Modified
// when the request's If-None-Match already names the tag. Nothing here
// hashes, copies or formats: the bytes are shared with the cache, the
// length string was stamped when the body was built (an empty one lets
// net/http fill the header in — no formatting on this path).
//
//repro:hotpath
func writeValidated(w http.ResponseWriter, r *http.Request, contentType string, body []byte, etag, contentLength string) {
	h := w.Header()
	h.Set("ETag", etag)
	h.Set("Cache-Control", "no-cache")
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h.Set("Content-Type", contentType)
	if contentLength != "" {
		h.Set("Content-Length", contentLength)
	}
	_, _ = w.Write(body)
}

// serveSiteMap lists every resolved context with a link to its entry.
func (s *Server) serveSiteMap(w http.ResponseWriter) {
	var sb strings.Builder
	sb.WriteString("<!DOCTYPE html>\n<html><head><title>Site map</title></head><body>\n")
	sb.WriteString("<h1>Navigational contexts</h1>\n<ul>\n")
	// One model for the whole page: a rebuild between two reads could
	// drop a listed context or mix two structures on one page.
	rm := s.app.Resolved()
	var names []string
	for _, rc := range rm.Contexts {
		names = append(names, rc.Name)
	}
	sort.Strings(names)
	for _, name := range names {
		rc := rm.Context(name)
		fmt.Fprintf(&sb, "<li><a href=\"/%s\">%s</a> (%d members, %s)</li>\n",
			core.PagePath(name, rc.EntryNode()), name, len(rc.Members), rc.Def.Access.Kind())
	}
	sb.WriteString("</ul>\n<p><a href=\"/links.xml\">links.xml</a></p>\n</body></html>\n")
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write([]byte(sb.String()))
}

// serveXML serves a repository document (data file or linkbase) from
// the application's serialized-document cache: the bytes and validator
// were produced when the model last changed, not per request.
func (s *Server) serveXML(w http.ResponseWriter, r *http.Request, uri string, rt reqTrace) {
	body, etag, clen, err := s.app.DocBytes(uri)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	from := rt.now()
	writeValidated(w, r, "application/xml; charset=utf-8", body, etag, clen)
	rt.span(obs.PhaseWrite, from)
}

// serveHealth reports the serving stack's vitals for load-balancer
// checks: live session count, woven-page cache state, the session
// persistence backend ("none" when sessions are memory-only), the
// write-behind queue — persist_queue is how many dirty sessions await
// their flush, persist_flushed how many records have reached the store
// — and process vitals (uptime, goroutine count, heap bytes) so a
// probe can catch a leak without attaching pprof.
//
//repro:nostore
func (s *Server) serveHealth(w http.ResponseWriter) {
	backend := "none"
	if s.persist != nil {
		backend = s.persist.Name()
	}
	queued, written := s.PersistStats()
	retryQueued, retryDropped := s.RetryStats()
	status := "ok"
	degraded, cause := s.Degraded()
	if degraded {
		status = "degraded"
	}
	var rec analytics.Stats
	if s.rec != nil {
		rec = s.rec.Stats()
	}
	adaptGen, derived := s.AdaptStats()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	// Operational state must never be served stale by an intermediary.
	w.Header().Set("Cache-Control", "no-store")
	health := struct {
		Status          string `json:"status"`
		DegradedCause   string `json:"degraded_cause,omitempty"`
		Sessions        int    `json:"sessions"`
		CacheGeneration uint64 `json:"cache_generation"`
		CachedPages     int    `json:"cached_pages"`
		Store           string `json:"store"`
		PersistQueue    int    `json:"persist_queue"`
		PersistFlushed  uint64 `json:"persist_flushed"`
		RetryQueue      int    `json:"persist_retry_queue"`
		RetryDropped    uint64 `json:"persist_retry_dropped"`
		// Process vitals.
		UptimeSeconds float64 `json:"uptime_seconds"`
		Goroutines    int     `json:"goroutines"`
		HeapBytes     uint64  `json:"heap_bytes"`
		// Analytics vitals: zero across the board when no recorder is
		// configured.
		AnalyticsRecorded   uint64 `json:"analytics_recorded"`
		AnalyticsSampledOut uint64 `json:"analytics_sampled_out"`
		AnalyticsDropped    uint64 `json:"analytics_dropped"`
		AdaptGeneration     uint64 `json:"adapt_generation"`
		DerivedStructures   uint64 `json:"derived_structures"`
	}{
		Status:          status,
		DegradedCause:   cause,
		Sessions:        s.sessions.len(),
		CacheGeneration: s.app.CacheGeneration(),
		CachedPages:     s.app.CachedPages(),
		Store:           backend,
		PersistQueue:    queued,
		PersistFlushed:  written,
		RetryQueue:      retryQueued,
		RetryDropped:    retryDropped,

		UptimeSeconds: time.Since(s.start).Seconds(),
		Goroutines:    runtime.NumGoroutine(),
		HeapBytes:     mem.HeapAlloc,

		AnalyticsRecorded:   rec.Recorded,
		AnalyticsSampledOut: rec.SampledOut,
		AnalyticsDropped:    rec.Dropped,
		AdaptGeneration:     adaptGen,
		DerivedStructures:   derived,
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(health)
}

// servePage resolves /{family}/{group...}/{node}.html to a woven page and
// moves the visitor's session there.
func (s *Server) servePage(w http.ResponseWriter, r *http.Request, path string, rt reqTrace) {
	contextName, nodeID, err := splitPagePath(path)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	var page *core.Page
	renderFrom := rt.now()
	if s.useCache {
		// The stat variant reports how the page was obtained, so the trace
		// distinguishes a cache hit from a single-flight join from a weave.
		var outcome core.CacheOutcome
		page, outcome, err = s.app.RenderPageCachedStat(contextName, nodeID)
		if err == nil {
			rt.span(cachePhase[outcome], renderFrom)
		}
	} else {
		page, err = s.app.RenderPage(contextName, nodeID)
		if err == nil {
			rt.span(obs.PhaseWeave, renderFrom)
		}
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	id, sess := s.session(w, r, rt)
	var prevCtx *navigation.ResolvedContext
	var prevNode string
	if s.rec != nil {
		prevCtx, prevNode = sess.Location()
	}
	if err := sess.EnterContext(contextName, nodeID); err != nil {
		// RenderPage accepted the pair, so the session must too;
		// failing here indicates a model/session mismatch.
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if s.rec != nil {
		hopFrom := rt.now()
		s.recordHop(prevCtx, prevNode, contextName, nodeID)
		rt.span(obs.PhaseHopRecord, hopFrom)
	}
	// The visit counts even when the response is a 304: revalidating a
	// cached page is still a traversal to it.
	s.saveSession(id, sess, rt)
	writeFrom := rt.now()
	writeValidated(w, r, "text/html; charset=utf-8", page.Body, page.ETag, page.ContentLength)
	rt.span(obs.PhaseWrite, writeFrom)
}

// serveTraversal performs a session-relative navigation action and
// redirects to the resulting page — Next answered per the visitor's
// current context, the §2 semantics over HTTP.
func (s *Server) serveTraversal(w http.ResponseWriter, r *http.Request, action string, rt reqTrace) {
	id, sess := s.session(w, r, rt)
	if sess.Context() == nil {
		http.Error(w, "no current context; visit a page first", http.StatusConflict)
		return
	}
	var prevCtx *navigation.ResolvedContext
	var prevNode string
	if s.rec != nil {
		prevCtx, prevNode = sess.Location()
	}
	var err error
	switch action {
	case "next":
		err = sess.Next()
	case "prev":
		err = sess.Prev()
	case "up":
		err = sess.Up()
	case "back":
		err = sess.Back()
	case "forward":
		err = sess.Forward()
	case "select":
		node := r.URL.Query().Get("node")
		if node == "" {
			http.Error(w, "select requires ?node=", http.StatusBadRequest)
			return
		}
		err = sess.Select(node)
	case "switch":
		ctx := r.URL.Query().Get("context")
		if ctx == "" {
			http.Error(w, "switch requires ?context=", http.StatusBadRequest)
			return
		}
		err = sess.SwitchContext(ctx)
	default:
		http.Error(w, fmt.Sprintf("unknown action %q", action), http.StatusNotFound)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	s.saveSession(id, sess, rt)
	// One consistent snapshot: reading context and node separately
	// could mix states from two concurrent traversals on this session.
	rc, nodeID := sess.Location()
	if s.rec != nil {
		hopFrom := rt.now()
		s.recordHop(prevCtx, prevNode, rc.Name, nodeID)
		rt.span(obs.PhaseHopRecord, hopFrom)
	}
	target := "/" + core.PagePath(rc.Name, nodeID)
	writeFrom := rt.now()
	http.Redirect(w, r, target, http.StatusSeeOther)
	rt.span(obs.PhaseWrite, writeFrom)
}

// splitPagePath turns "ByAuthor/picasso/guitar.html" into
// ("ByAuthor:picasso", "guitar"); the final "index.html" maps to the hub.
// Empty segments (leading, doubled or trailing slashes) are rejected —
// "ByAuthor//guitar.html" names no context.
func splitPagePath(path string) (contextName, nodeID string, err error) {
	segs := strings.Split(strings.TrimSuffix(path, ".html"), "/")
	if len(segs) < 2 {
		return "", "", fmt.Errorf("server: page path %q too short", path)
	}
	for _, seg := range segs {
		if seg == "" {
			return "", "", fmt.Errorf("server: page path %q has an empty segment", path)
		}
	}
	nodeID = segs[len(segs)-1]
	if nodeID == "index" {
		nodeID = navigation.HubID
	}
	contextName = strings.Join(segs[:len(segs)-1], ":")
	return contextName, nodeID, nil
}

// session returns the requester's navigation session and its id,
// creating the session (and setting the cookie) on first contact. When a
// persistence backend is configured, a session missing from memory is
// first looked for there — the lazy rehydration that lets a restarted
// server resume every visitor mid-trail. The cookie is HttpOnly and
// SameSite=Lax: the session id is never readable from page scripts and
// is not sent on cross-site subrequests.
func (s *Server) session(w http.ResponseWriter, r *http.Request, rt reqTrace) (string, *navigation.Session) {
	id := ""
	if c, err := r.Cookie(sessionCookie); err == nil && c.Value != "" {
		id = c.Value
	}
	if sess := s.lookup(id, rt); sess != nil {
		// A session that outlived a model mutation (an adaptation
		// cycle, an operator swap) is rebased onto the current model,
		// so its traversals follow the same edges the woven pages
		// show; an unchanged model makes Rebase a pointer compare
		// under the session's own lock. A position the new model no
		// longer has means the trail cannot continue — fall through to
		// a fresh session (the stale one ages out via its TTL).
		if sess.Rebase(s.app.Resolved()) == nil {
			return id, sess
		}
	}
	id = newSessionID()
	http.SetCookie(w, &http.Cookie{
		Name:     sessionCookie,
		Value:    id,
		Path:     "/",
		HttpOnly: true,
		SameSite: http.SameSiteLaxMode,
	})
	sess := navigation.NewSession(s.app.Resolved())
	sess.SetTrailLimit(s.trailLimit)
	s.sessions.put(id, sess)
	return id, sess
}

// lookup finds a live session by id: in memory first, then (when
// persistence is on) rehydrated from the durable store.
func (s *Server) lookup(id string, rt reqTrace) *navigation.Session {
	if id == "" {
		return nil
	}
	lookupFrom := rt.now()
	sess := s.sessions.get(id)
	rt.span(obs.PhaseSessionLookup, lookupFrom)
	if sess != nil {
		return sess
	}
	if s.persist == nil {
		return nil
	}
	// Rehydration is traced as one phase — the store read, the decode and
	// the restore are a single cold-start cost from the request's view.
	rehydrateFrom := rt.now()
	sess = s.rehydrate(id)
	rt.span(obs.PhaseSessionRehydrate, rehydrateFrom)
	return sess
}

// saveSession records that the session's durable state is behind. On
// the default write-behind path that is one coalescing map insert — the
// snapshot, encoding and store write happen on the background flusher,
// and ten steps between two flushes cost one write. Under
// WithSyncPersistence the record is encoded and written here, under
// a per-id stripe lock — without it, two concurrent steps on one
// session could persist out of order and leave the durable record a
// step behind the in-memory trail until the next save. Either way a
// failed write costs durability of this one step, not the request.
func (s *Server) saveSession(id string, sess *navigation.Session, rt reqTrace) {
	if s.persist == nil {
		return
	}
	if s.flush != nil {
		enqueueFrom := rt.now()
		s.flush.enqueue(id, sess)
		rt.span(obs.PhaseFlushEnqueue, enqueueFrom)
		return
	}
	mu := &s.saveMu[fnv32(id)%uint32(len(s.saveMu))]
	mu.Lock()
	defer mu.Unlock()
	rec := navigation.Record{State: sess.State()}
	if s.sessions.ttl > 0 {
		rec.Expires = s.sessions.now().Add(s.sessions.ttl)
	}
	raw := navigation.AppendRecord(nil, rec)
	// The storage-op phase covers only the store write, not the snapshot
	// or encoding above — it is the span a slow-request trace points at
	// when the backend stalls.
	putFrom := rt.now()
	err := s.persist.Put(sessionKeyPrefix+id, raw)
	rt.span(obs.PhaseStorageOp, putFrom)
	if err != nil {
		// The synchronous path has no retry queue — this step's
		// durability is lost — but the failure still counts and still
		// trips the breaker, so /readyz drains the instance.
		persistErrors.Inc()
		s.health.fail("session persistence failing: " + err.Error())
		return
	}
	s.syncWrites.Add(1)
	s.health.ok()
}

// fnv32 hashes a session id onto the save stripes.
func fnv32(s string) uint32 {
	h := fnv.New32a()
	_, _ = h.Write([]byte(s))
	return h.Sum32()
}

// rehydrate restores a session from its durable record, tracking it in
// memory on success. Expired, corrupt or model-orphaned records are
// deleted and treated as a miss.
func (s *Server) rehydrate(id string) *navigation.Session {
	raw, err := s.persist.Get(sessionKeyPrefix + id)
	if err != nil {
		// A miss is normal (an unknown or expired cookie); a store read
		// error is the persistence path failing and feeds the breaker.
		// Either way the visitor gets a fresh session — degraded mode
		// serves on, it just cannot resume cold trails.
		if !errors.Is(err, storage.ErrNotFound) {
			s.health.fail("session read failing: " + err.Error())
		}
		return nil
	}
	rec, err := navigation.ParseRecord(raw)
	if err != nil {
		_ = s.persist.Delete(sessionKeyPrefix + id)
		return nil
	}
	if !rec.Expires.IsZero() && s.sessions.now().After(rec.Expires) {
		_ = s.persist.Delete(sessionKeyPrefix + id)
		return nil
	}
	sess, err := navigation.RestoreSession(s.app.Resolved(), rec.State)
	if err != nil {
		// The model moved on under the stored trail; a fresh session is
		// more honest than a position that no longer exists.
		_ = s.persist.Delete(sessionKeyPrefix + id)
		return nil
	}
	// A record written under an older (or absent) cap is trimmed on the
	// way in, so the cap holds across restarts too.
	sess.SetTrailLimit(s.trailLimit)
	// putIfAbsent, not put: a concurrent request may have rehydrated
	// (and even advanced) this session while we were rebuilding it, and
	// overwriting would roll the visitor back a step.
	return s.sessions.putIfAbsent(id, sess)
}

// serveSession returns the requester's visit trail as JSON — the context
// history that makes navigation context-dependent.
//
//repro:nostore
func (s *Server) serveSession(w http.ResponseWriter, r *http.Request, rt reqTrace) {
	visits := []navigation.Visit{}
	if c, err := r.Cookie(sessionCookie); err == nil {
		if sess := s.lookup(c.Value, rt); sess != nil {
			visits = sess.History()
			if visits == nil {
				visits = []navigation.Visit{}
			}
		}
	}
	// The trail is keyed by the requester's cookie; a shared cache serving
	// it to another visitor would leak their history.
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(visits)
}

// historyJSON is the wire form of a session's navigation history: the
// back/forward list with its cursor, distinct from the /session trail
// (which logs every position including re-arrivals via Back).
type historyJSON struct {
	Entries    []navigation.Visit `json:"entries"`
	Cursor     int                `json:"cursor"`
	CanBack    bool               `json:"can_back"`
	CanForward bool               `json:"can_forward"`
}

// serveHistory returns the requester's navigation history — the list
// /go/back and /go/forward traverse, with the cursor marking the
// current position. Like /session it is keyed by the requester's
// cookie, so it must never be cached by an intermediary.
//
//repro:nostore
func (s *Server) serveHistory(w http.ResponseWriter, r *http.Request, rt reqTrace) {
	h := historyJSON{Entries: []navigation.Visit{}}
	if c, err := r.Cookie(sessionCookie); err == nil {
		if sess := s.lookup(c.Value, rt); sess != nil {
			entries, cur := sess.NavHistory()
			if entries != nil {
				h.Entries = entries
			}
			h.Cursor = cur
			h.CanBack = cur > 0 && len(entries) > 0
			h.CanForward = cur < len(entries)-1
		}
	}
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(h)
}

// arcJSON is the wire form of one outbound traversal arc.
type arcJSON struct {
	Context string `json:"context"`
	Kind    string `json:"kind"`
	To      string `json:"to"`
	Label   string `json:"label"`
	Href    string `json:"href"`
}

// serveArcs answers the XLink-agent introspection query "which traversals
// begin at this node?": GET /arcs?node=ID returns, per containing
// context, the outbound arcs as JSON.
//
//repro:nostore
func (s *Server) serveArcs(w http.ResponseWriter, r *http.Request) {
	nodeID := r.URL.Query().Get("node")
	if nodeID == "" {
		http.Error(w, "arcs requires ?node=", http.StatusBadRequest)
		return
	}
	containing := s.app.Resolved().ContextsContaining(nodeID)
	if len(containing) == 0 {
		http.Error(w, fmt.Sprintf("no context contains node %q", nodeID), http.StatusNotFound)
		return
	}
	arcs := []arcJSON{}
	for _, rc := range containing {
		for _, e := range rc.OutEdges(nodeID) {
			arcs = append(arcs, arcJSON{
				Context: rc.Name,
				Kind:    string(e.Kind),
				To:      e.To,
				Label:   e.Label,
				Href:    "/" + core.PagePath(rc.Name, e.To),
			})
		}
	}
	// Arcs reflect the live linkbase; a cached copy would misreport a
	// structure swap.
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(arcs)
}

// SessionCount reports the number of live tracked sessions (for tests
// and diagnostics).
func (s *Server) SessionCount() int { return s.sessions.len() }

func newSessionID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failure is unrecoverable for session issuance;
		// a constant fallback would collide, so fail loudly.
		panic(fmt.Sprintf("server: session id entropy unavailable: %v", err))
	}
	return hex.EncodeToString(b[:])
}
