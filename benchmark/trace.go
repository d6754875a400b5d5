package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/analytics"
	"repro/internal/conceptual"
	"repro/internal/core"
	"repro/internal/navigation"
	"repro/internal/presentation"
	"repro/internal/server"
	"repro/internal/storage"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the call. Spans of one visitor step share its root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced run began
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(id, parent int64, name string, from, to time.Time) {
	l.mu.Lock()
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name,
		Start: int64(from.Sub(l.epoch)), End: int64(to.Sub(l.epoch))})
	l.mu.Unlock()
}

// durations returns the durations of the spans named name, sorted.
func (l *spanLog) durations(name string) []time.Duration {
	var d []time.Duration
	for _, s := range l.spans {
		if s.Name == name {
			d = append(d, time.Duration(s.End-s.Start))
		}
	}
	sortDurations(d)
	return d
}

// selfTimes sums, per span name, the spans' durations minus the time
// their child spans cover.
func (l *spanLog) selfTimes() map[string]float64 {
	children := map[int64][]span{}
	for _, s := range l.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]float64{}
	for _, s := range l.spans {
		cs := children[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, end := int64(0), s.Start
		for _, c := range cs {
			from, to := max(c.Start, end), min(c.End, s.End)
			if to > from {
				covered += to - from
				end = to
			}
		}
		self[s.Name] += ms(time.Duration(s.End - s.Start - covered))
	}
	return self
}

func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedTransport calls Server.ServeHTTP directly, recording a
// server.ServeHTTP span under the current step's span, the process's
// allocations across the call, and the write-behind queue depth after
// each call. The traced run drives it from one worker, so current names
// the one ServeHTTP call in progress for the storage decorator.
type tracedTransport struct {
	srv     *server.Server
	log     *spanLog
	step    int64
	current *atomic.Int64

	requests   int
	allocs     uint64
	allocBytes uint64
	queueMax   int
}

func (t *tracedTransport) do(req *request) (response, error) {
	r := req.httpRequest()
	w := httptest.NewRecorder()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id := t.log.ids.Add(1)
	t.current.Store(id)
	from := time.Now()
	t.srv.ServeHTTP(w, r)
	to := time.Now()
	t.current.Store(0)
	runtime.ReadMemStats(&m1)
	t.log.add(id, t.step, "server.ServeHTTP", from, to)
	t.requests++
	t.allocs += m1.Mallocs - m0.Mallocs
	t.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	if q, _ := t.srv.PersistStats(); q > t.queueMax {
		t.queueMax = q
	}
	return readResponse(w.Result(), req.wantBody), nil
}

// timedStore decorates the file store, timing each Get and Put into
// spans: a Get runs inside the ServeHTTP call that rehydrates a
// session; a Put runs on the write-behind flusher.
type timedStore struct {
	storage.Store
	log     *spanLog
	current *atomic.Int64

	mu       sync.Mutex
	gets     []time.Duration
	puts     []time.Duration
	putBytes int64
}

func (s *timedStore) Get(key string) ([]byte, error) {
	from := time.Now()
	v, err := s.Store.Get(key)
	to := time.Now()
	s.log.add(s.log.ids.Add(1), s.current.Load(), "storage.Get", from, to)
	s.mu.Lock()
	s.gets = append(s.gets, to.Sub(from))
	s.mu.Unlock()
	return v, err
}

func (s *timedStore) Put(key string, value []byte) error {
	from := time.Now()
	err := s.Store.Put(key, value)
	to := time.Now()
	s.log.add(s.log.ids.Add(1), 0, "storage.Put", from, to)
	s.mu.Lock()
	s.puts = append(s.puts, to.Sub(from))
	s.putBytes += int64(len(key) + len(value))
	s.mu.Unlock()
	return err
}

// applyDirect makes a planned mutation through core.App, as the
// control plane's handlers do.
func applyDirect(app *core.App, m *mutation) error {
	switch m.kind {
	case "document":
		if err := app.Store().SetAttrs(m.id, map[string]string{m.attr: m.value}); err != nil {
			return err
		}
		_, err := app.InvalidateDocument(navigation.NodeHref(m.id))
		return err
	case "structure":
		as, err := navigation.AccessByKind(m.access)
		if err != nil {
			return err
		}
		_, err = app.SetAccessStructures(map[string]navigation.AccessStructure{m.family: as})
		return err
	case "stylesheet":
		if m.install {
			return app.SetStylesheetXML(probeStylesheet)
		}
		app.SetStylesheet(nil)
		return nil
	}
	return fmt.Errorf("unknown mutation kind %q", m.kind)
}

// counters reads navserve's /metrics as series -> value.
func counters(t transport) (map[string]float64, error) {
	raw, err := getBody(t, "/metrics", "")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func share(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

// traced reports the per-layer metrics: counts from navserve's /metrics
// over the workload's fixed-rate phase, then the same phase, with the
// same seed, against the serving stack in this process with a span
// around every call into a layer, then a replay of the recorded
// operations against the layers the server reaches only internally.
func (r *runner) traced() (*result, error) {
	res := &result{metrics: map[string]metric{}, bases: map[string]any{}}
	if err := r.countersRun(res); err != nil {
		return nil, err
	}
	log := &spanLog{epoch: time.Now()}
	visitors, err := r.spansRun(res, log)
	if err != nil {
		return nil, err
	}
	if err := replay(res, visitors, r.seed); err != nil {
		return nil, err
	}
	res.bases["self_time_ms"] = log.selfTimes()
	path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", r.name, r.seed))
	if err := log.write(path); err != nil {
		return nil, err
	}
	res.bases["spans"] = map[string]any{"file": path, "count": len(log.spans)}
	return res, nil
}

// countersRun is the end-to-end fixed-rate phase with /metrics read
// before and after it.
func (r *runner) countersRun(res *result) error {
	s, _, err := r.start(1)
	if err != nil {
		return err
	}
	defer s.ns.stop()
	rng := rand.New(rand.NewSource(r.seed))
	if _, err := r.settle(s, rng); err != nil {
		return err
	}
	m0, err := counters(s.conns[0])
	if err != nil {
		return err
	}
	cpu0 := cpuTime()
	fixedLen := r.fixedLen()
	fixed, err := r.phase(s, rng, r.w.rate, fixedLen, 30*time.Second)
	if err != nil {
		return err
	}
	cpu := cpuTime() - cpu0
	m1, err := counters(s.conns[0])
	if err != nil {
		return err
	}
	res.check(&fixed.tally)
	if r.w.resume {
		res.check(verifyHistories(s))
	}
	res.attempted, res.failed = fixed.requests+fixed.aborted, fixed.failed+fixed.aborted
	d := func(k string) float64 { return m1[k] - m0[k] }
	sortDurations(fixed.late)
	res.set("load.late_p99_ms", ms(quantile(fixed.late, 0.99)), "ms")
	res.set("load.cpu_s", cpu.Seconds(), "s")

	hits, misses, joins := d("navcore_page_cache_hits_total"), d("navcore_page_cache_misses_total"), d("navcore_page_cache_joins_total")
	lookups := hits + misses + joins
	res.set("core.hit_share", share(hits, lookups), "1")
	res.set("core.join_share", share(joins, lookups), "1")
	full, local := d(`navcore_rebuilds_total{verdict="full"}`), d(`navcore_rebuilds_total{verdict="local"}`)
	res.set("core.rebuilds_full", full, "count")
	res.set("core.rebuilds_local", local, "count")
	mutations := d("navserve_mutation_events")
	res.set("core.invalidated_per_mutation", share(d("navcore_pages_invalidated_total"), mutations), "pages")
	res.set("core.cached_pages", m1["navserve_cached_pages"], "count")

	res.set("server.not_modified_share", share(d(`navserve_http_not_modified_total{route="page"}`), float64(fixed.conditional)), "1")
	steps := float64(len(fixed.steps))
	res.set("server.flush_writes_per_step", share(d("navserve_flush_writes_total"), steps), "1")
	shed := 0.0
	for k := range m1 {
		if strings.HasPrefix(k, "navserve_http_shed_total") {
			shed += d(k)
		}
	}
	res.set("server.shed", shed, "count")
	recorded, dropped := d("navserve_analytics_recorded"), d("navserve_analytics_dropped")
	res.set("analytics.drop_share", share(dropped, recorded+dropped), "1")

	res.bases["counts"] = map[string]float64{
		"cache_lookups": lookups, "cache_hits": hits, "cache_misses": misses, "cache_joins": joins,
		"rebuilds_full": full, "rebuilds_local": local, "rebuilds_none": d(`navcore_rebuilds_total{verdict="none"}`),
		"mutations": mutations, "pages_invalidated": d("navcore_pages_invalidated_total"),
		"steps": steps, "requests": float64(fixed.requests), "conditional_page_gets": float64(fixed.conditional),
		"not_modified": d(`navserve_http_not_modified_total{route="page"}`), "shed": shed,
		"flush_writes": d("navserve_flush_writes_total"), "flush_batches": d("navserve_flush_batches_total"),
		"storage_get":    d(`navstorage_op_duration_seconds_count{backend="file",op="get"}`),
		"storage_put":    d(`navstorage_op_duration_seconds_count{backend="file",op="put"}`),
		"storage_delete": d(`navstorage_op_duration_seconds_count{backend="file",op="delete"}`),
		"hops_recorded":  recorded, "hops_dropped": dropped,
	}
	return nil
}

// spansRun drives the same fixed-rate phase through Server.ServeHTTP
// in this process, over a stack assembled as navserve assembles it and
// a store wrapped in the timing decorator. It returns the visitors with
// their recorded navigation calls.
func (r *runner) spansRun(res *result, log *spanLog) ([]*visitor, error) {
	dir := filepath.Join(r.dir, "traced")
	var pool []*visitor
	if r.w.resume {
		var err error
		if pool, err = r.returning(dir); err != nil {
			return nil, err
		}
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	current := &atomic.Int64{}
	var ts *timedStore
	var openTime time.Duration
	stk, err := assemble(dir, func(st storage.Store) storage.Store {
		ts = &timedStore{Store: st, log: log, current: current}
		return ts
	}, &openTime)
	if err != nil {
		return nil, err
	}
	defer stk.shutdown()
	tt := &tracedTransport{srv: stk.srv, log: log, current: current}
	site, err := fetchSite(tt, apiToken)
	if err != nil {
		return nil, err
	}
	e := &env{site: site, live: newLiveSite(site), token: apiToken, record: true, apply: func(m *mutation) error {
		id := log.ids.Add(1)
		from := time.Now()
		err := applyDirect(stk.app, m)
		log.add(id, 0, "core.mutation", from, time.Now())
		return err
	}}
	if !r.w.resume {
		if err := warm([]transport{tt}, site); err != nil {
			return nil, err
		}
	}
	// Only the fixed-rate phase is traced: drop what the warm-up recorded.
	tt.requests, tt.allocs, tt.allocBytes, tt.queueMax = 0, 0, 0, 0
	ts.mu.Lock()
	ts.gets, ts.puts, ts.putBytes = nil, nil, 0
	ts.mu.Unlock()
	log.mu.Lock()
	log.spans = nil
	log.mu.Unlock()

	used, nextID := 0, 0
	next := func() *visitor {
		if r.w.resume {
			if used == len(pool) {
				return nil
			}
			used++
			return pool[used-1]
		}
		nextID++
		return newVisitor(nextID, r.seed)
	}
	fixedLen := r.fixedLen()
	visitors := schedule(rand.New(rand.NewSource(r.seed)), r.w.rate, fixedLen, r.w.resume, next)
	if r.w.writes > 0 {
		wv := &visitor{id: -1, rng: rand.New(rand.NewSource(r.seed)), etags: map[string]string{}, w: newWriter(r.seed, site)}
		fixedRate(wv, r.w.writes, fixedLen)
		visitors = append(visitors, wv)
	}
	// One P for the traced phase: the write-behind flusher and every
	// other goroutine of the stack then run only while no ServeHTTP call
	// does, unless the call blocks, so the allocations counted across a
	// call are, with that exception, the call's own.
	procs := runtime.GOMAXPROCS(1)
	p := runPhase([]transport{tt}, e, visitors, 30*time.Second)
	runtime.GOMAXPROCS(procs)
	res.check(&p.tally)
	stk.srv.FlushSessions()

	serve := log.durations("server.ServeHTTP")
	res.set("server.serve_us_p50", float64(quantile(serve, 0.5))/1e3, "us")
	res.set("server.serve_us_p99", float64(quantile(serve, 0.99))/1e3, "us")
	res.set("server.allocs_per_req", share(float64(tt.allocs), float64(tt.requests)), "count")
	res.set("server.alloc_bytes_per_req", share(float64(tt.allocBytes), float64(tt.requests)), "B")
	res.set("server.flush_queue_max", float64(tt.queueMax), "count")

	ts.mu.Lock()
	sortDurations(ts.puts)
	sortDurations(ts.gets)
	res.set("storage.put_us_p50", float64(quantile(ts.puts, 0.5))/1e3, "us")
	res.set("storage.put_ms_max", ms(quantile(ts.puts, 1)), "ms")
	res.set("storage.get_us_p50", float64(quantile(ts.gets, 0.5))/1e3, "us")
	res.set("storage.bytes_per_step", share(float64(ts.putBytes), float64(len(p.steps))), "B")
	res.bases["storage"] = map[string]any{"gets": len(ts.gets), "puts": len(ts.puts), "put_bytes": ts.putBytes}
	ts.mu.Unlock()
	res.set("storage.open_ms", ms(openTime), "ms")
	res.set("storage.dir_mb", float64(dirSize(dir))/(1<<20), "MB")
	if r.w.resume {
		// Every returning visitor's first request rehydrates its session
		// through exactly one Get.
		returned := 0
		for _, v := range visitors {
			if v.w == nil {
				returned++
			}
		}
		if n := len(ts.gets); n < returned {
			res.nviolations++
			res.violations = append(res.violations, fmt.Sprintf("traced resume: %d store Gets for %d returning visitors", n, returned))
		}
		res.bases["returning_visitors"] = returned
	}
	return visitors, nil
}

// replay times the calls the server makes internally, on a fresh app of
// the workload's site, from the traced run's recorded operations.
func replay(res *result, visitors []*visitor, seed int64) error {
	app, err := buildApp()
	if err != nil {
		return err
	}
	rm := app.Resolved()

	// navigation: each visitor's calls on a fresh session, then its
	// state, its restore, and its rebase after a structure swap.
	var steps, restores, rebases []time.Duration
	var stateBytes, sessions int
	var live []*navigation.Session
	var hops [][3]string
	pages := map[[2]string]bool{}
	var pageOrder [][2]string
	for _, v := range visitors {
		if len(v.ops) == 0 {
			continue
		}
		sess := navigation.NewSession(rm)
		sess.SetTrailLimit(server.DefaultTrailLimit)
		for _, op := range v.ops {
			prevCtx, prevNode := sess.Location()
			from := time.Now()
			var err error
			switch op.call {
			case "enter":
				err = sess.EnterContext(op.context, op.node)
			case "next":
				err = sess.Next()
			case "prev":
				err = sess.Prev()
			case "up":
				err = sess.Up()
			case "select":
				err = sess.Select(op.node)
			case "back":
				err = sess.Back()
			case "forward":
				err = sess.Forward()
			}
			steps = append(steps, time.Since(from))
			if err != nil {
				continue
			}
			rc, node := sess.Location()
			if op.call == "enter" {
				k := [2]string{op.context, op.node}
				if !pages[k] {
					pages[k] = true
					pageOrder = append(pageOrder, k)
				}
			}
			from2 := analytics.EntryFrom
			if prevCtx != nil && prevCtx.Name == rc.Name {
				if prevNode == node {
					continue
				}
				from2 = prevNode
			}
			hops = append(hops, [3]string{rc.Name, from2, node})
		}
		raw, err := json.Marshal(sess.State())
		if err != nil {
			return err
		}
		stateBytes += len(raw)
		sessions++
		from := time.Now()
		if _, err := navigation.RestoreSession(rm, sess.State()); err != nil {
			return fmt.Errorf("replay: restoring a session: %w", err)
		}
		restores = append(restores, time.Since(from))
		live = append(live, sess)
	}
	sortDurations(steps)
	sortDurations(restores)
	res.set("navigation.step_ns_p50", float64(quantile(steps, 0.5)), "ns")
	res.set("navigation.restore_us_p50", float64(quantile(restores, 0.5))/1e3, "us")
	res.set("navigation.state_bytes_mean", share(float64(stateBytes), float64(sessions)), "B")

	// analytics: the hops the server records for those calls.
	rec := analytics.NewRecorder(analytics.RecorderConfig{SampleRate: 1})
	var records []time.Duration
	for _, h := range hops {
		from := time.Now()
		rec.Record(h[0], h[1], h[2])
		records = append(records, time.Since(from))
	}
	sortDurations(records)
	res.set("analytics.record_ns_p50", float64(quantile(records, 0.5)), "ns")

	// core: weave each page the visitors loaded (RenderPage) and write
	// its tree as HTML, then serve the same loads from the cache.
	const maxWeaves = 400
	var weaves, htmls, hits []time.Duration
	for i, k := range pageOrder {
		if i == maxWeaves {
			break
		}
		from := time.Now()
		page, err := app.RenderPage(k[0], k[1])
		weaves = append(weaves, time.Since(from))
		if err != nil {
			return fmt.Errorf("replay: weaving %v: %w", k, err)
		}
		from = time.Now()
		_ = presentation.WriteHTML(page.Doc.Root(), presentation.HTMLOptions{Doctype: true, Indent: "  "})
		htmls = append(htmls, time.Since(from))
		_, _ = app.RenderPageCached(k[0], k[1])
	}
	for i, k := range pageOrder {
		if i == maxWeaves {
			break
		}
		from := time.Now()
		_, outcome, err := app.RenderPageCachedStat(k[0], k[1])
		d := time.Since(from)
		if err == nil && outcome == core.CacheHit {
			hits = append(hits, d)
		}
	}
	sortDurations(weaves)
	sortDurations(htmls)
	sortDurations(hits)
	res.set("core.weave_us_p50", float64(quantile(weaves, 0.5))/1e3, "us")
	res.set("core.weave_us_p99", float64(quantile(weaves, 0.99))/1e3, "us")
	res.set("presentation.html_us_p50", float64(quantile(htmls, 0.5))/1e3, "us")
	res.set("core.hit_ns_p50", float64(quantile(hits, 0.5)), "ns")

	// The calls inside a rebuild, each the median of five.
	const reps = 5
	medianOf := func(fn func() error) (time.Duration, error) {
		var d []time.Duration
		for i := 0; i < reps; i++ {
			from := time.Now()
			if err := fn(); err != nil {
				return 0, err
			}
			d = append(d, time.Since(from))
		}
		sortDurations(d)
		return quantile(d, 0.5), nil
	}
	store := app.Store()
	var resolved *navigation.ResolvedModel
	d, err := medianOf(func() (err error) { resolved, err = app.Model().Resolve(store); return err })
	if err != nil {
		return err
	}
	res.set("navigation.resolve_ms", ms(d), "ms")
	d, _ = medianOf(func() error { conceptual.ExportAll(store); return nil })
	res.set("conceptual.export_ms", ms(d), "ms")
	d, err = medianOf(func() error {
		_, err := navigation.ParseLinkbase(navigation.GenerateLinkbase(resolved))
		return err
	})
	if err != nil {
		return err
	}
	res.set("navigation.linkbase_ms", ms(d), "ms")
	repo := app.Repository()
	d, _ = medianOf(func() error {
		for _, doc := range repo {
			_ = doc.IndentedString()
		}
		return nil
	})
	res.set("xmldom.serialize_ms", ms(d), "ms")

	// Mutations through core.App, drawn by the edit writer's plan, and
	// the rebase of every replayed session after each.
	s := &site{}
	for _, rc := range rm.Contexts {
		c := siteContext{Name: rc.Name, Family: rc.Def.Name, Access: rc.Def.Access.Kind(), HasHub: rc.Def.Access.HasHub()}
		for _, m := range rc.Members {
			c.MemberIDs = append(c.MemberIDs, m.ID())
		}
		s.contexts = append(s.contexts, c)
		if len(s.families) == 0 || s.families[len(s.families)-1] != c.Family {
			s.families = append(s.families, c.Family)
		}
	}
	w := newWriter(seed, s)
	var rebuilds []time.Duration
	for i := 0; i < 10; i++ {
		m := w.plan(s)
		from := time.Now()
		if err := applyDirect(app, &m); err != nil {
			return fmt.Errorf("replay: %s: %w", m.name, err)
		}
		rebuilds = append(rebuilds, time.Since(from))
		now := app.Resolved()
		for _, sess := range live {
			from := time.Now()
			_ = sess.Rebase(now)
			rebases = append(rebases, time.Since(from))
		}
	}
	sortDurations(rebuilds)
	sortDurations(rebases)
	res.set("core.rebuild_ms_p50", ms(quantile(rebuilds, 0.5)), "ms")
	res.set("core.rebuild_ms_max", ms(quantile(rebuilds, 1)), "ms")
	res.set("navigation.rebase_ns_p50", float64(quantile(rebases, 0.5)), "ns")
	res.bases["replay"] = map[string]int{"sessions": sessions, "navigation_calls": len(steps), "hops": len(hops),
		"pages_woven": len(weaves), "cache_hits": len(hits), "mutations": len(rebuilds), "rebases": len(rebases)}
	return nil
}
