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
// and the README's "Control plane" section. Only the control plane
// (/api/v1 and Adapt, methods of Server) holds the core.App. Every
// GET/HEAD route, the sessions and their persistence are methods of the
// embedded serving, which holds the App's core.Reader and no mutator:
// the compiler keeps the serve plane from changing the woven model.
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
// every context trail mid-tour. The flusher (flush.go) is the only code
// that writes or deletes session records. It is write-behind by
// default: a step marks the session dirty in a coalescing queue and a
// background loop writes the latest state in batches
// (WithFlushInterval, WithFlushBatch; Close runs the final drain).
// WithSyncPersistence makes it write through on every step instead. In
// both modes a failed write is retried. /healthz and /metrics render
// one list of instance vitals (vitals in metrics.go), the queue depth
// and written-record total among them.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/textproto"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
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
	serving
	app *core.App

	// apiToken guards the /api/v1 control plane (WithAPIToken); empty
	// means the control plane is disabled.
	apiToken string
	// deriveCfg tunes the derivation Adapt runs (WithDeriveConfig).
	deriveCfg analytics.Config
}

// serving is the serving plane: it reads the application through a
// core.Reader and holds nothing that can change the woven model.
type serving struct {
	read     *core.Reader
	sessions *sessionStore
	useCache bool
	persist  storage.Store

	// flush is the only writer of session records (nil when
	// persistence is off): write-behind by default, write-through under
	// WithSyncPersistence.
	flush *flusher

	// health is the store-health breaker: consecutive persistence
	// failures flip the server into degraded mode (serving from cache,
	// durability queued, /readyz 503) until a write lands again.
	health *breaker

	// limits is the bounded in-flight request limiter; saturated
	// classes shed with 503 before any work is done.
	limits inflightLimiter

	// rec, when set, counts every navigation hop for the adaptation
	// pipeline; adapt tracks what the pipeline has derived so far.
	rec   *analytics.Recorder
	adapt adaptState

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

// WithSyncPersistence makes the flusher write every navigation step's
// session record before the response is sent, instead of queueing it
// for the next flush round. A crash then loses no step — at the cost of
// one store write per request, serialized with every other write. A
// failed write enters the retry queue, as on the write-behind path. It
// also makes persistence effects deterministic for tests.
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

// withRetryLimit bounds the failed-write retry queue (default
// DefaultRetryLimit) for tests: past n sessions the oldest entry is
// dropped and counted.
func withRetryLimit(n int) Option {
	return func(s *Server) { s.retryLimit = n }
}

// withBreakerThreshold sets how many consecutive persistence failures
// flip the server into degraded mode (default DefaultBreakerThreshold)
// for tests.
func withBreakerThreshold(n int) Option {
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
		app: app,
		serving: serving{
			read:          app.Reader,
			useCache:      true,
			ttl:           DefaultSessionTTL,
			shards:        DefaultSessionShards,
			flushInterval: DefaultFlushInterval,
			flushBatch:    DefaultFlushBatch,
			trailLimit:    DefaultTrailLimit,
			retryLimit:    DefaultRetryLimit,
			start:         time.Now(),
		},
	}
	for _, opt := range opts {
		opt(s)
	}
	s.health = newBreaker(s.breakerThreshold)
	s.sessions = newSessionStore(s.shards, s.ttl, s.now)
	if s.persist != nil {
		s.flush = newFlusher(s.persist, s.sessions.ttl, s.sessions.now, s.flushBatch, s.flushInterval, s.retryLimit, s.health, s.syncPersist)
		// An expired session's durable record must die with it, or the
		// backing store would accumulate (and later resurrect) every
		// abandoned trail. The delete is a tombstone through the flusher,
		// so it cannot race a pending state write.
		s.sessions.onEvict = s.flush.enqueueDelete
	}
	return s
}

// Close flushes the write-behind persistence queue and stops its
// background goroutine. It does not close the storage backend — the
// caller owns that — and a server without persistence needs no Close.
// Safe to call more than once.
func (s *serving) Close() error {
	if s.flush != nil {
		s.flush.close()
	}
	return nil
}

// FlushSessions synchronously drains the write-behind queue and every
// pending retry, so a caller (an operator endpoint, a test) can force
// durability without shutting down. Under synchronous persistence only
// failed writes await a retry.
func (s *serving) FlushSessions() {
	if s.flush != nil {
		s.flush.flushNow()
	}
}

// PersistStats reports the write-behind queue depth and how many
// records have been written to (or deleted from) the persistence
// backend so far. Zeroes when persistence is off.
func (s *serving) PersistStats() (queued int, written uint64) {
	if s.flush == nil {
		return 0, 0
	}
	return s.flush.depth(), s.flush.flushed.Load()
}

// EvictExpiredSessions drops every session idle past its TTL and
// returns how many were evicted. Expired sessions are also dropped
// lazily on access; a long-running server calls this periodically
// (StartJanitor does so on a ticker) so abandoned sessions cannot
// accumulate between visits.
func (s *serving) EvictExpiredSessions() int { return s.sessions.evictExpired() }

// StartJanitor begins sweeping expired sessions every interval in a
// background goroutine and returns a stop function (idempotent). Wire
// the stop into the HTTP server's shutdown (cmd/navserve registers it
// with RegisterOnShutdown) so the sweeper does not outlive the server.
func (s *serving) StartJanitor(interval time.Duration) (stop func()) {
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
func (s *serving) methodNotAllowed(w http.ResponseWriter, r *http.Request) {
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
func (s *serving) route(w http.ResponseWriter, r *http.Request, rt reqTrace) {
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
func (s *serving) serveSiteMap(w http.ResponseWriter) {
	var sb strings.Builder
	sb.WriteString("<!DOCTYPE html>\n<html><head><title>Site map</title></head><body>\n")
	sb.WriteString("<h1>Navigational contexts</h1>\n<ul>\n")
	// One model for the whole page: a rebuild between two reads could
	// drop a listed context or mix two structures on one page.
	rm := s.read.Resolved()
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

// serveXML serves a repository document (data file or linkbase) as
// the application holds it serialized: the bytes and validator were
// produced when the model last changed, not per request.
func (s *serving) serveXML(w http.ResponseWriter, r *http.Request, uri string, rt reqTrace) {
	body, etag, clen, err := s.read.DocBytes(uri)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	from := rt.now()
	writeValidated(w, r, "application/xml; charset=utf-8", body, etag, clen)
	rt.span(obs.PhaseWrite, from)
}

// serveHealth reports the serving stack's vitals for load-balancer
// checks: the instance vitals /metrics also exports (sessions, page
// cache, persistence queue and retries, analytics, process vitals — see
// vitals), plus the status ("ok" or "degraded", with the cause) and the
// session persistence backend ("none" when sessions are memory-only).
//
//repro:nostore
func (s *serving) serveHealth(w http.ResponseWriter) {
	backend := "none"
	if s.persist != nil {
		backend = s.persist.Name()
	}
	health := map[string]any{"status": "ok", "store": backend}
	if degraded, cause := s.Degraded(); degraded {
		health["status"] = "degraded"
		health["degraded_cause"] = cause
	}
	for _, v := range s.vitals() {
		health[v.key] = v.value
	}
	// Operational state must never be served stale by an intermediary.
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(health)
}

// servePage resolves /{family}/{group...}/{node}.html to a woven page and
// moves the visitor's session there.
func (s *serving) servePage(w http.ResponseWriter, r *http.Request, path string, rt reqTrace) {
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
		page, outcome, err = s.read.RenderPageCachedStat(contextName, nodeID)
		if err == nil {
			rt.span(cachePhase[outcome], renderFrom)
		}
	} else {
		page, err = s.read.RenderPage(contextName, nodeID)
		if err == nil {
			rt.span(obs.PhaseWeave, renderFrom)
		}
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	id, sess := s.session(w, r, rt)
	var prev navigation.Visit
	if s.rec != nil {
		prev = sess.Current()
	}
	if err := sess.EnterContext(contextName, nodeID); err != nil {
		// The page was woven from a model that a mutation has since
		// replaced, and the newest model no longer has the pair: the
		// page is gone, as a request a moment later would have found.
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	if s.rec != nil {
		// The page's names, not the path's: a recorder slot keeps the
		// strings it first sees, and the path's pin the request line.
		hopFrom := rt.now()
		s.recordHop(prev, page.Context, page.NodeID)
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
// A traversal never starts a session: without a live one that has a
// position it answers 409, sets no cookie and stores nothing.
func (s *serving) serveTraversal(w http.ResponseWriter, r *http.Request, action string, rt reqTrace) {
	id := sessionCookieValue(r)
	sess := s.live(id, rt)
	var prev navigation.Visit
	if sess != nil {
		prev = sess.Current()
	}
	if prev.Context == "" {
		http.Error(w, "no current context; visit a page first", http.StatusConflict)
		return
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
	// It is read by name, which a mutation since the step cannot take
	// away: the redirect then leads to a page that answers 404.
	here := sess.Current()
	if s.rec != nil {
		hopFrom := rt.now()
		s.recordHop(prev, here.Context, here.NodeID)
		rt.span(obs.PhaseHopRecord, hopFrom)
	}
	target := "/" + core.PagePath(here.Context, here.NodeID)
	writeFrom := rt.now()
	http.Redirect(w, r, target, http.StatusSeeOther)
	rt.span(obs.PhaseWrite, writeFrom)
}

// splitPagePath turns "ByAuthor/picasso/guitar.html" into
// ("ByAuthor:picasso", "guitar"); the final "index.html" maps to the hub.
// Empty segments (leading, doubled or trailing slashes) are rejected —
// "ByAuthor//guitar.html" names no context. The context name is the
// path's own substring unless the directory has several segments.
func splitPagePath(path string) (contextName, nodeID string, err error) {
	trimmed := strings.TrimSuffix(path, ".html")
	slash := strings.LastIndexByte(trimmed, '/')
	if slash < 0 {
		return "", "", fmt.Errorf("server: page path %q too short", path)
	}
	dir, nodeID := trimmed[:slash], trimmed[slash+1:]
	if nodeID == "" || dir == "" || dir[0] == '/' || dir[len(dir)-1] == '/' || strings.Contains(dir, "//") {
		return "", "", fmt.Errorf("server: page path %q has an empty segment", path)
	}
	if nodeID == "index" {
		nodeID = navigation.HubID
	}
	if strings.IndexByte(dir, '/') < 0 {
		return dir, nodeID, nil
	}
	return strings.ReplaceAll(dir, "/", ":"), nodeID, nil
}

// session returns the requester's navigation session and its id,
// creating the session (and setting the cookie) on first contact or when
// the one the cookie names cannot go on (see live). When a
// persistence backend is configured, a session missing from memory is
// first looked for there — the lazy rehydration that lets a restarted
// server resume every visitor mid-trail. The cookie is HttpOnly and
// SameSite=Lax: the session id is never readable from page scripts and
// is not sent on cross-site subrequests.
func (s *serving) session(w http.ResponseWriter, r *http.Request, rt reqTrace) (string, *navigation.Session) {
	id := sessionCookieValue(r)
	if sess := s.live(id, rt); sess != nil {
		return id, sess
	}
	id = newSessionID()
	http.SetCookie(w, &http.Cookie{
		Name:     sessionCookie,
		Value:    id,
		Path:     "/",
		HttpOnly: true,
		SameSite: http.SameSiteLaxMode,
	})
	sess := navigation.NewSession(s.read.Resolved())
	sess.SetTrailLimit(s.trailLimit)
	s.sessions.put(id, sess)
	return id, sess
}

// live returns the session id names (see lookup) if the newest model
// still has its position: sessions resolve against the newest model, so
// traversals follow the edges the woven pages show. A session whose
// position an adaptation cycle or an operator swap removed cannot go on,
// and ages out via its TTL.
func (s *serving) live(id string, rt reqTrace) *navigation.Session {
	if sess := s.lookup(id, rt); sess != nil && sess.Rebase(s.read.Resolved()) == nil {
		return sess
	}
	return nil
}

// sessionCookieValue returns the value r.Cookie(sessionCookie) returns —
// the first valid cookie of that name, quotes stripped, invalid values
// skipped — or "" when there is none, without building a Cookie for
// every pair in the header. The value is a substring of the header.
func sessionCookieValue(r *http.Request) string {
	for _, line := range r.Header["Cookie"] {
		for len(line) > 0 {
			var part string
			part, line, _ = strings.Cut(line, ";")
			name, val, _ := strings.Cut(textproto.TrimString(part), "=")
			if textproto.TrimString(name) != sessionCookie {
				continue
			}
			if len(val) > 1 && val[0] == '"' && val[len(val)-1] == '"' {
				val = val[1 : len(val)-1]
			}
			if validCookieValue(val) {
				return val
			}
		}
	}
	return ""
}

// validCookieValue reports whether every byte of v may appear in a
// cookie value, by net/http's rule.
func validCookieValue(v string) bool {
	for i := 0; i < len(v); i++ {
		if b := v[i]; b < 0x20 || b >= 0x7f || b == '"' || b == ';' || b == '\\' {
			return false
		}
	}
	return true
}

// lookup finds a live session by id: in memory first, then (when
// persistence is on) rehydrated from the durable store.
func (s *serving) lookup(id string, rt reqTrace) *navigation.Session {
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

// saveSession hands the session to the flusher. On the default
// write-behind path that is one coalescing map insert — the encoding
// and store write happen on the background flusher, and ten steps
// between two flushes cost one write. Under WithSyncPersistence the
// flusher writes the record before returning, and the trace files that
// write as the storage-op phase: it is the span a slow-request trace
// points at when the backend stalls. Either way a failed write is
// retried, and costs the request nothing.
func (s *serving) saveSession(id string, sess *navigation.Session, rt reqTrace) {
	if s.flush == nil {
		return
	}
	phase := obs.PhaseFlushEnqueue
	if s.syncPersist {
		phase = obs.PhaseStorageOp
	}
	from := rt.now()
	s.flush.enqueue(id, sess)
	rt.span(phase, from)
}

// rehydrate restores a session from its durable record, tracking it in
// memory on success. Expired, corrupt or model-orphaned records are
// discarded through the flusher and treated as a miss.
func (s *serving) rehydrate(id string) *navigation.Session {
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
		s.flush.enqueueDelete(id)
		return nil
	}
	if !rec.Expires.IsZero() && s.sessions.now().After(rec.Expires) {
		s.flush.enqueueDelete(id)
		return nil
	}
	sess, err := navigation.RestoreSession(s.read.Resolved(), rec.State)
	if err != nil {
		// The model moved on under the stored trail; a fresh session is
		// more honest than a position that no longer exists.
		s.flush.enqueueDelete(id)
		return nil
	}
	// A record written under an older (or absent) cap is trimmed on the
	// way in, so the cap holds across restarts too.
	sess.SetTrailLimit(s.trailLimit)
	// putIfAbsent, not put: a concurrent request may have rehydrated
	// (and even advanced) this session while we were rebuilding it, and
	// overwriting would roll the visitor back a step. The id is cut from
	// the request's Cookie header; the table keeps a copy, not the header.
	return s.sessions.putIfAbsent(strings.Clone(id), sess)
}

// serveSession returns the requester's visit trail as JSON — the context
// history that makes navigation context-dependent.
//
//repro:nostore
func (s *serving) serveSession(w http.ResponseWriter, r *http.Request, rt reqTrace) {
	visits := []navigation.Visit{}
	if sess := s.lookup(sessionCookieValue(r), rt); sess != nil {
		visits = sess.History()
		if visits == nil {
			visits = []navigation.Visit{}
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
func (s *serving) serveHistory(w http.ResponseWriter, r *http.Request, rt reqTrace) {
	h := historyJSON{Entries: []navigation.Visit{}}
	if sess := s.lookup(sessionCookieValue(r), rt); sess != nil {
		entries, cur := sess.NavHistory()
		if entries != nil {
			h.Entries = entries
		}
		h.Cursor = cur
		h.CanBack = cur > 0 && len(entries) > 0
		h.CanForward = cur < len(entries)-1
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
func (s *serving) serveArcs(w http.ResponseWriter, r *http.Request) {
	nodeID := r.URL.Query().Get("node")
	if nodeID == "" {
		http.Error(w, "arcs requires ?node=", http.StatusBadRequest)
		return
	}
	containing := s.read.Resolved().ContextsContaining(nodeID)
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
func (s *serving) SessionCount() int { return s.sessions.len() }

func newSessionID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failure is unrecoverable for session issuance;
		// a constant fallback would collide, so fail loudly.
		panic(fmt.Sprintf("server: session id entropy unavailable: %v", err))
	}
	return hex.EncodeToString(b[:])
}
