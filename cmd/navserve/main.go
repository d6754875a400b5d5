// Command navserve runs the XLink-aware user agent over a woven
// application: pages are woven per request from the separated data,
// linkbase and presentation, and each visitor's navigation trail is
// tracked in a session (GET /session returns it as JSON).
//
// Usage:
//
//	navserve -addr :8080
//	navserve -addr :8080 -dataset synthetic -painters 20 -access index
//	navserve -addr :8080 -store file -store-dir /var/lib/navserve
//
// Serving knobs:
//
//	-no-cache          weave every page per request instead of serving
//	                   from the woven-page cache (the cache is
//	                   invalidated automatically when the model
//	                   changes, so it is safe to leave on)
//	-session-ttl       idle visitor-session lifetime before eviction
//	                   (default 30m; 0 keeps sessions forever)
//	-session-shards    lock-shard count of the session store
//	                   (default 16; raise for very high concurrency)
//	-evict-interval    how often the background janitor sweeps expired
//	                   sessions (default 1m; 0 disables the sweeper,
//	                   leaving only lazy on-access eviction)
//	-trail-limit       cap each visitor session's history at its
//	                   most-recent N hops (default 1024; 0 keeps
//	                   everything — long-lived crawler sessions then
//	                   grow without bound)
//
// Adaptive navigation (the internal/analytics subsystem):
//
//	-analytics         record visitor navigation hops (sharded atomic
//	                   counters, no locks or allocations on the request
//	                   path) and serve GET /stats (default true)
//	-sample-rate       record one hop in every N (default 1 = all)
//	-adapt-interval    how often to recompute access structures from
//	                   recorded traffic (default 30s; 0 records and
//	                   reports but never adapts)
//	-adapt-min-hops    skip adapt cycles until this many hops have been
//	                   recorded (default 200)
//
// With -analytics, every page view and /go/ traversal is counted as a
// transition of the visitor's current context. The adaptation loop
// folds the counts into a per-context transition graph, derives a
// "popular next" guided tour per context (plus landmark promotion for
// high-traffic nodes and demotion of never-followed links), and swaps
// the derived structures in through the same SetAccessStructure path an
// operator would use — the dependency-aware cache then re-weaves only
// the contexts whose edges actually changed, rotating their ETags.
// GET /stats exposes the recorder counters and per-context top
// nodes/edges; GET /healthz carries the headline analytics counters.
//
// Control plane (the /api/v1 management surface):
//
//	-api-token         bearer token guarding /api/v1. When unset the
//	                   control plane is disabled entirely (every /api
//	                   request answers 403): a server nobody configured
//	                   a token for exposes no mutation surface. With a
//	                   token, reads (GET /api/v1/model, /contexts,
//	                   /contexts/{family}/structure, /stylesheet,
//	                   /analytics/graph) and writes (PUT structure and
//	                   stylesheet, PATCH documents, POST snapshot and
//	                   adapt) require "Authorization: Bearer <token>".
//
// The control plane turns the paper's one-line maintenance change into
// a one-call edit against a live process: PUT a structure spec at
// /api/v1/contexts/{family}/structure (or run `navctl context
// set-structure FAMILY KIND`) and the dependency-aware cache re-weaves
// only that family's contexts, rotating their ETags and no others.
// Writes validate the whole payload before mutating, so a bad spec
// never half-applies. See the README's "Control plane" section and
// cmd/navctl.
//
// Observability (the internal/obs subsystem):
//
// GET /metrics serves the process's metrics in Prometheus text
// exposition format — request counts and latency per route class,
// woven-page cache hits/misses, rebuild verdicts and invalidation
// counts, write-behind flush depth and batch latency, storage
// operation latency per backend, adaptation-cycle timings, and
// process vitals (uptime, goroutines, heap). Like /healthz it needs
// no bearer token. Recording is lock-free and allocation-free on the
// serving path. With -api-token, GET /api/v1/events (or `navctl
// events`) additionally lists recent model mutations with their
// rebuild duration and cache blast radius.
//
// Tracing knobs (request-lifecycle traces, GET /api/v1/traces):
//
//	-trace             record request lifecycles into a bounded trace
//	                   ring (default true). Each kept trace carries a
//	                   per-phase breakdown (limiter admit, session
//	                   lookup, cache hit/miss, weave, storage op,
//	                   response write, ...) and W3C trace-context
//	                   identity; responses echo a Traceparent header
//	                   when the caller sent one or the trace was
//	                   sampled. The unsampled fast path allocates
//	                   nothing.
//	-trace-sample      keep one request in every N (default 128;
//	                   1 keeps everything, 0 disables sampling so only
//	                   slow requests are kept)
//	-trace-slow        always keep a request slower than this,
//	                   sampled or not (default 250ms; 0 disables
//	                   slow capture)
//	-trace-ring        how many kept traces are retained (default 256)
//	-store-faults      wrap the store in a deterministic fault
//	                   injector, e.g. "put:latency=75ms;get:err=0.1"
//	                   (testing/smoke only — see
//	                   internal/storage/faultstore)
//
// Persistence knobs (the internal/storage subsystem):
//
//	-store             session/snapshot backend: "mem" (in-process,
//	                   lost on exit) or "file" (append-only log with
//	                   snapshot compaction, crash-safe)
//	-store-dir         directory the file backend lives in (required
//	                   with -store file)
//	-sync-persist      make the flusher write each step's session
//	                   record before the response goes out instead of
//	                   queueing it (durability per step, at one store
//	                   write per request); a failed write is retried,
//	                   as on the write-behind path
//	-flush-interval    how often the write-behind flusher drains the
//	                   dirty-session queue (default 100ms; bounds the
//	                   crash-loss window)
//	-flush-batch       sessions per flush round, and the queue depth
//	                   that triggers an early flush (default 256)
//	-shutdown-timeout  grace period for in-flight requests when
//	                   SIGINT/SIGTERM arrives (default 10s)
//
// Profiling:
//
//	-pprof             serve net/http/pprof on a separate loopback
//	                   listener (e.g. -pprof 127.0.0.1:6060; empty =
//	                   off). The address must be a loopback host — the
//	                   profiler is never exposed on the serving
//	                   address. Then e.g.:
//	                   go tool pprof http://127.0.0.1:6060/debug/pprof/profile
//
// With -store file, every visitor session reaches the store after each
// navigation step through the flusher — write-behind by default,
// coalesced; written through with -sync-persist — and is rehydrated
// lazily after a restart, so a redeploy loses nobody's place in their
// tour; the woven site
// definition (data documents + links.xml) is also exported into the
// store at startup, so the next navserve — or any XLink-aware agent —
// can reload the same site from the same directory. The file backend
// is single-writer: an advisory lock makes a second process opening a
// live -store-dir fail fast, so sharing happens by sequential hand-off
// (one process exits, the next takes over). Responses carry
// ETag validators derived from the woven-page cache generation;
// conditional GETs revalidate with 304 until the model changes. HEAD
// is supported on every endpoint, and GET /healthz reports session
// count, cache generation and the active backend for load balancers.
//
// On SIGINT/SIGTERM the server drains in-flight requests (up to
// -shutdown-timeout), stops the session janitor, and closes the store —
// the file backend's final flush compacts everything into one fsync'd
// snapshot.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/analytics"
	"repro/internal/cli"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/storage/faultstore"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "navserve:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	srv, cfg, contexts, err := build(args)
	if err != nil {
		return err
	}
	// The store's final flush is the point of shutting down gracefully;
	// if it fails, the operator must hear about it, not see a clean exit
	// over a stale snapshot. The handler's session-queue drain runs
	// first (LIFO), so pending write-behind states reach the store
	// before it closes.
	defer func() {
		if cerr := cfg.closeStore(); cerr != nil && err == nil {
			err = fmt.Errorf("closing store: %w", cerr)
		}
	}()
	defer func() {
		if cerr := cfg.closeHandler(); cerr != nil && err == nil {
			err = fmt.Errorf("flushing sessions: %w", cerr)
		}
	}()
	if cfg.pprofAddr != "" {
		pp := pprofServer(cfg.pprofAddr)
		go func() {
			if perr := pp.ListenAndServe(); perr != nil && perr != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "navserve: pprof:", perr)
			}
		}()
		defer pp.Close()
		fmt.Printf("pprof on http://%s/debug/pprof/\n", cfg.pprofAddr)
	}
	api := "control plane off (set -api-token)"
	if cfg.apiEnabled {
		api = "control plane at /api/v1"
	}
	fmt.Printf("serving %d contexts on %s (site map at /, health at /healthz, %s store, %s)\n",
		contexts, srv.Addr, cfg.storeName, api)

	// Serve until the listener fails or a shutdown signal arrives; on
	// SIGINT/SIGTERM drain in-flight requests within the grace period so
	// the janitor stop (RegisterOnShutdown) and the store's final flush
	// actually run instead of dying mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		stop()
		fmt.Println("navserve: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), cfg.shutdownTimeout)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		return nil
	}
}

// buildConfig carries the run-loop pieces assembled by build that are
// not the *http.Server itself.
type buildConfig struct {
	storeName       string
	shutdownTimeout time.Duration
	pprofAddr       string
	apiEnabled      bool
	closeHandler    func() error
	closeStore      func() error
}

// build assembles the HTTP server from flags; split from run so tests can
// verify assembly without binding a port.
func build(args []string) (*http.Server, *buildConfig, int, error) {
	fs := flag.NewFlagSet("navserve", flag.ContinueOnError)
	var flags cli.DatasetFlags
	flags.Register(fs)
	addr := fs.String("addr", ":8080", "listen address")
	noCache := fs.Bool("no-cache", false, "weave every page per request (disable the woven-page cache)")
	sessionTTL := fs.Duration("session-ttl", server.DefaultSessionTTL,
		"idle session lifetime before eviction (0 = never expire)")
	sessionShards := fs.Int("session-shards", server.DefaultSessionShards,
		"session store shard count")
	evictInterval := fs.Duration("evict-interval", time.Minute,
		"expired-session sweep interval (0 = lazy eviction only)")
	trailLimit := fs.Int("trail-limit", server.DefaultTrailLimit,
		"keep each session's most-recent N hops (0 = unbounded)")
	analyticsOn := fs.Bool("analytics", true,
		"record navigation hops and serve /stats")
	sampleRate := fs.Int("sample-rate", 1,
		"record one hop in every N (1 = all)")
	adaptInterval := fs.Duration("adapt-interval", server.DefaultAdaptInterval,
		"access-structure recomputation interval (0 = never adapt)")
	adaptMinHops := fs.Uint64("adapt-min-hops", 200,
		"recorded hops required before an adapt cycle runs")
	apiToken := fs.String("api-token", "",
		"bearer token guarding the /api/v1 control plane (empty = control plane disabled)")
	storeKind := fs.String("store", "mem", `persistence backend: "mem" or "file"`)
	storeDir := fs.String("store-dir", "", "directory for the file backend (required with -store file)")
	syncPersist := fs.Bool("sync-persist", false,
		"write each step's session record before responding instead of write-behind (failed writes are retried)")
	flushInterval := fs.Duration("flush-interval", server.DefaultFlushInterval,
		"write-behind flush interval (bounds the crash-loss window)")
	flushBatch := fs.Int("flush-batch", server.DefaultFlushBatch,
		"sessions per write-behind flush round")
	shutdownTimeout := fs.Duration("shutdown-timeout", 10*time.Second,
		"grace period for in-flight requests on SIGINT/SIGTERM")
	readTimeout := fs.Duration("read-timeout", 30*time.Second,
		"max duration for reading an entire request, body included (0 = unbounded)")
	writeTimeout := fs.Duration("write-timeout", 30*time.Second,
		"max duration for writing a response — bounds slow-client drains (0 = unbounded)")
	idleTimeout := fs.Duration("idle-timeout", 2*time.Minute,
		"how long a keep-alive connection may sit idle before the server closes it (0 = unbounded)")
	maxInflight := fs.Int("max-inflight", 0,
		"bound on concurrently served visitor requests; past it requests are shed with 503 + Retry-After (0 = unbounded)")
	maxInflightAPI := fs.Int("max-inflight-api", 0,
		"bound on concurrent /api/v1 control-plane requests (0 = unbounded)")
	pprofAddr := fs.String("pprof", "",
		"serve net/http/pprof on this loopback address (e.g. 127.0.0.1:6060; empty = off)")
	traceOn := fs.Bool("trace", true,
		"record request-lifecycle traces (GET /api/v1/traces, navctl traces)")
	traceSample := fs.Int("trace-sample", 128,
		"keep one request trace in every N (1 = all, 0 = only slow requests)")
	traceSlow := fs.Duration("trace-slow", 250*time.Millisecond,
		"always keep a request slower than this, sampled or not (0 = off)")
	traceRing := fs.Int("trace-ring", obs.DefaultTraceRing,
		"how many kept traces are retained")
	storeFaults := fs.String("store-faults", "",
		`wrap the store in a deterministic fault injector, e.g. "put:latency=75ms" (testing only)`)
	if err := fs.Parse(args); err != nil {
		return nil, nil, 0, err
	}
	if *pprofAddr != "" {
		host, _, err := net.SplitHostPort(*pprofAddr)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("-pprof %q: %w", *pprofAddr, err)
		}
		if ip := net.ParseIP(host); host != "localhost" && (ip == nil || !ip.IsLoopback()) {
			return nil, nil, 0, fmt.Errorf("-pprof %q: profiler must bind a loopback address", *pprofAddr)
		}
	}
	app, err := flags.BuildApp()
	if err != nil {
		return nil, nil, 0, err
	}

	var store storage.Store
	switch *storeKind {
	case "mem":
		if *storeDir != "" {
			return nil, nil, 0, fmt.Errorf("-store-dir is only meaningful with -store file")
		}
		store = storage.NewMem()
	case "file":
		if *storeDir == "" {
			return nil, nil, 0, fmt.Errorf("-store file requires -store-dir")
		}
		store, err = storage.OpenFile(*storeDir)
		if err != nil {
			return nil, nil, 0, err
		}
	default:
		return nil, nil, 0, fmt.Errorf("unknown -store %q (want mem or file)", *storeKind)
	}
	// Fault injection wraps the raw backend first, so the injected
	// latency and errors are visible to the instrumentation layer the
	// same way a genuinely slow disk would be.
	if *storeFaults != "" {
		fst := faultstore.New(store, 1)
		if err := fst.Configure(*storeFaults); err != nil {
			store.Close()
			return nil, nil, 0, fmt.Errorf("-store-faults: %w", err)
		}
		store = fst
	}
	// Time every storage operation into the /metrics op-latency
	// histograms; wrapping before the snapshot export means startup I/O
	// is visible too, not just steady-state traffic.
	store = storage.Instrument(store)
	// Publish the woven site definition into the store so the next
	// process over this directory (a navserve, an XLink agent) can
	// reload it. Only durable backends can carry it anywhere, so the
	// mem store skips the copy.
	if *storeKind == "file" {
		if err := app.ExportSnapshot(store); err != nil {
			store.Close()
			return nil, nil, 0, err
		}
	}

	opts := []server.Option{
		server.WithSessionTTL(*sessionTTL),
		server.WithSessionShards(*sessionShards),
		server.WithPersistence(store),
		server.WithFlushInterval(*flushInterval),
		server.WithFlushBatch(*flushBatch),
		server.WithTrailLimit(*trailLimit),
	}
	if *syncPersist {
		opts = append(opts, server.WithSyncPersistence())
	}
	if *maxInflight > 0 {
		opts = append(opts, server.WithMaxInflight(*maxInflight))
	}
	if *maxInflightAPI > 0 {
		opts = append(opts, server.WithMaxInflightAPI(*maxInflightAPI))
	}
	if *apiToken != "" {
		opts = append(opts, server.WithAPIToken(*apiToken))
	}
	if *noCache {
		opts = append(opts, server.WithoutPageCache())
	}
	if *analyticsOn {
		// The hop tables are sized from the site, so a large museum's
		// hops are counted rather than dropped once a fixed table fills.
		opts = append(opts, server.WithAnalytics(analytics.NewRecorder(analytics.RecorderConfig{
			SampleRate:    *sampleRate,
			SlotsPerShard: analytics.SlotsPerShardFor(app.Resolved(), 0),
		})))
	}
	if *traceOn {
		opts = append(opts, server.WithTracing(obs.NewTracer(obs.TraceConfig{
			SampleEvery:   *traceSample,
			SlowThreshold: *traceSlow,
			RingSize:      *traceRing,
		})))
	}
	if *pprofAddr != "" {
		// Labeled profiles only cost anything while a profiler is
		// attachable, so labeling rides the -pprof flag.
		opts = append(opts, server.WithProfileLabels())
	}
	handler := server.New(app, opts...)
	// The full timeout set: header read was always bounded; body reads,
	// response writes and idle keep-alives are now too, so one slow (or
	// hostile) client cannot pin a connection — or a handler goroutine —
	// forever.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}
	if *sessionTTL > 0 && *evictInterval > 0 {
		// The janitor sweeps abandoned sessions; tying its stop to
		// server shutdown keeps the goroutine from outliving serving.
		srv.RegisterOnShutdown(handler.StartJanitor(*evictInterval))
	}
	if *analyticsOn && *adaptInterval > 0 {
		// The adaptation loop re-derives access structures from live
		// traffic; its stop rides shutdown like the janitor's.
		srv.RegisterOnShutdown(handler.StartAdaptation(*adaptInterval, *adaptMinHops))
	}
	cfg := &buildConfig{
		storeName:       store.Name(),
		shutdownTimeout: *shutdownTimeout,
		pprofAddr:       *pprofAddr,
		apiEnabled:      *apiToken != "",
		// Drain the write-behind session queue before the store's final
		// flush, so the last steps of every trail reach disk.
		closeHandler: handler.Close,
		closeStore:   store.Close,
	}
	return srv, cfg, len(app.Resolved().Contexts), nil
}

// pprofServer builds the profiling listener's server: the standard
// pprof handlers on their own mux, so nothing else the process
// registers on http.DefaultServeMux leaks onto the profiling port (and
// vice versa — the serving mux never exposes /debug).
func pprofServer(addr string) *http.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
}
