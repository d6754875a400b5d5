// Command benchmark is the repository's benchmark: it builds nothing
// itself (run.sh builds navserve and this program from the tree under
// test), starts a fresh navserve on the file store, drives it open-loop
// with one of three workloads, checks every answer that has a right
// one, and prints the metrics named in BENCHMARK.json.
//
//	benchmark --workload browse|edit|resume --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// prints the per-layer metrics: counts from navserve's /metrics over
// the same fixed-rate phase, and span timings from a run of the same
// workload and seed against the serving stack in this process.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it is the
// run's context, with the measurements that carry no bound. Any wrong
// answer exits 1.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// workload is one traffic mix. Rates are in visitor steps per second.
type workload struct {
	rate   float64       // offered rate of the fixed-rate phase
	limit  time.Duration // step_p99 limit that max_rps must meet
	search float64       // first offered rate of the max_rps search
	writes float64       // control-plane mutations per second (edit)
	resume bool          // returning visitors over a populated store
}

// workloads holds the fixed rates and latency limits, calibrated on a
// 2-CPU Intel Xeon container: each fixed rate is well below the
// workload's max_rps there, and each limit sits above the fixed-rate
// p99 and below the latency of a growing backlog.
var workloads = map[string]workload{
	"browse": {rate: 1000, limit: 100 * time.Millisecond, search: 8000},
	"edit":   {rate: 1000, limit: 400 * time.Millisecond, search: 5000, writes: 4.2},
	"resume": {rate: 2000, limit: 400 * time.Millisecond, search: 4500, resume: true},
}

const (
	// setupRepeats is how many times a run starts navserve; setup_s and
	// setup_wall_s are medians over the starts.
	setupRepeats = 5
	// probeMutations is the size of the idle mutation probe that gives
	// browse and resume their mutation round trips.
	probeMutations = 50
	// maxTrials is the length of the max_rps search: the offered rate
	// moves by searchStep until a trial passes and one fails, then the
	// bracket is bisected, so four trials resolve max_rps to within 9%.
	maxTrials  = 4
	searchStep = 1.4
)

func main() {
	os.Exit(run())
}

func run() int {
	flags := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := flags.String("workload", "", "browse, edit or resume")
	seed := flags.Int64("seed", 1, "seed of the visitors, the schedule and the writer")
	seconds := flags.Int("seconds", 20, "length of the timed traffic")
	trace := flags.Int("trace", 0, "1 prints per-layer metrics instead of end-to-end ones")
	bin := flags.String("navserve", filepath.Join(".bench_build", "navserve"), "navserve binary under test")
	if err := flags.Parse(os.Args[1:]); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "benchmark: want --workload browse|edit|resume, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	if _, err := os.Stat(*bin); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: navserve binary: %v\n", err)
		return 2
	}
	runDir, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("run-%s-%d-%d", *name, *seed, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(runDir, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	cl := &cleanup{}
	cl.add(func() { os.RemoveAll(runDir) })
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cl.run()
		os.Exit(3)
	}()
	defer cl.run()

	r := &runner{w: w, name: *name, seed: *seed, seconds: *seconds, bin: *bin, dir: runDir, cl: cl,
		nconn: runtime.NumCPU()}
	// The generator may use at most the machine's CPUs, and opens one
	// connection per CPU.
	runtime.GOMAXPROCS(r.nconn)
	// A generator GC cycle takes CPU from the server it measures; the
	// generator's heap is small, so it trades memory for fewer cycles.
	debug.SetGCPercent(400)
	var res *result
	if *trace == 1 {
		res, err = r.traced()
	} else {
		res, err = r.endToEnd()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", *name, err)
		return 1
	}
	ctx, _ := json.Marshal(map[string]any{"context": r.context(res)})
	fmt.Println(string(ctx))
	for _, v := range res.violations {
		fmt.Fprintln(os.Stderr, "violation:", v)
	}
	out, _ := json.Marshal(map[string]any{
		"correct":   res.correct(),
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   res.metrics,
	})
	fmt.Println(string(out))
	if !res.correct() {
		return 1
	}
	return 0
}

// cleanup runs registered release functions once, last first, on every
// exit path including a signal.
type cleanup struct {
	mu  sync.Mutex
	fns []func()
}

func (c *cleanup) add(fn func()) {
	c.mu.Lock()
	c.fns = append(c.fns, fn)
	c.mu.Unlock()
}

func (c *cleanup) run() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := len(c.fns) - 1; i >= 0; i-- {
		c.fns[i]()
	}
	c.fns = nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome.
type result struct {
	metrics     map[string]metric
	attempted   int
	failed      int
	violations  []string
	nviolations int
	bases       map[string]any // the denominators and counts behind the metrics
	// unbounded are measured and printed in the context line, but carry
	// no bound in BENCHMARK.json: on this machine they follow the CPU the
	// hypervisor steals more than the program (see benchmark/README.md).
	unbounded map[string]metric
}

func (r *result) correct() bool { return r.nviolations == 0 }

func (r *result) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) check(t *tally) {
	r.nviolations += t.nviolations
	for _, v := range t.violations {
		if len(r.violations) < 20 {
			r.violations = append(r.violations, v)
		}
	}
}

// runner carries one invocation's settings.
type runner struct {
	w       workload
	name    string
	seed    int64
	seconds int
	bin     string
	dir     string
	cl      *cleanup
	nconn   int

	// resume: the populated store and the visitors recorded into it
	template string
	recorded []*visitor
}

// returning copies the populated store into dir (when dir is set) and
// returns fresh copies of the recorded visitors, populating the store
// on first use.
func (r *runner) returning(dir string) ([]*visitor, error) {
	if r.template == "" {
		template := filepath.Join(r.dir, "populated")
		recorded, err := populate(template, r.seed, r.nconn)
		if err != nil {
			return nil, err
		}
		r.template, r.recorded = template, recorded
		runtime.GC()
	}
	if dir != "" {
		if err := copyDir(r.template, dir); err != nil {
			return nil, err
		}
	}
	pool := make([]*visitor, len(r.recorded))
	for i, v := range r.recorded {
		pool[i] = v.returner(r.seed)
	}
	return pool, nil
}

// session is the navserve under test plus the generator's view of it.
type session struct {
	ns     *navserve
	conns  []transport
	wires  []*wireConn
	env    *env
	writer *visitor
	pool   []*visitor // resume: the recorded visitors, in return order
	used   int
	nextID int
}

// start populates the store (resume), starts navserve repeats times
// and keeps the last one, returning what each start took.
func (r *runner) start(repeats int) (*session, []startup, error) {
	s := &session{}
	var setups []startup
	for i := 0; i < repeats; i++ {
		dir := filepath.Join(r.dir, fmt.Sprintf("store-%d", i))
		var err error
		if r.w.resume {
			s.pool, err = r.returning(dir)
		} else {
			err = os.MkdirAll(dir, 0o755)
		}
		if err != nil {
			return nil, nil, err
		}
		ns, d, err := startNavserve(r.bin, dir, filepath.Join(r.dir, "navserve.log"))
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, d)
		if i < repeats-1 {
			ns.stop()
			os.RemoveAll(dir)
			continue
		}
		s.ns = ns
		r.cl.add(ns.stop)
	}
	for i := 0; i < r.nconn; i++ {
		wc := newWireConn(s.ns.addr)
		s.wires = append(s.wires, wc)
		s.conns = append(s.conns, wc)
		r.cl.add(wc.close)
	}
	site, err := fetchSite(s.conns[0], apiToken)
	if err != nil {
		return nil, nil, err
	}
	s.env = &env{site: site, live: newLiveSite(site), token: apiToken}
	s.writer = &visitor{id: -1, rng: rand.New(rand.NewSource(r.seed)), etags: map[string]string{},
		w: newWriter(r.seed, site)}
	if !r.w.resume {
		if err := warm(s.conns, site); err != nil {
			return nil, nil, err
		}
	}
	return s, setups, nil
}

// settleLen is the untimed traffic that precedes the fixed-rate phase
// of browse and edit, so the server's sessions, persistence cadence and
// heap are in their steady state when timing starts.
const settleLen = 2 * time.Second

// settle returns the round trips of the mutations it made.
func (r *runner) settle(s *session, rng *rand.Rand) ([]time.Duration, error) {
	if r.w.resume {
		return nil, nil // resume times the cold start itself
	}
	p, err := r.phase(s, rng, r.w.rate, settleLen, 30*time.Second)
	if err != nil {
		return nil, err
	}
	if p.nviolations > 0 || p.failed > 0 {
		return nil, fmt.Errorf("settling: %d failed, %v", p.failed, p.violations)
	}
	return p.mutations, nil
}

// cpuTicks are the machine's CPU time counters from /proc/stat.
type cpuTicks struct{ steal, total int64 }

func stolen() cpuTicks {
	var t cpuTicks
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return t
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	for i, f := range strings.Fields(line)[1:] {
		n, _ := strconv.ParseInt(f, 10, 64)
		t.total += n
		if i == 7 {
			t.steal = n
		}
	}
	return t
}

// share is the fraction of the machine's CPU time stolen by the
// hypervisor since from.
func (t cpuTicks) share(from cpuTicks) float64 {
	if t.total == from.total {
		return 0
	}
	return float64(t.steal-from.steal) / float64(t.total-from.total)
}

// warm GETs every page of the site once, so browse and edit time a warm
// page cache.
func warm(conns []transport, s *site) error {
	var paths []string
	for _, c := range s.contexts {
		paths = append(paths, pagePath(entry{Context: c.Name, NodeID: hubNode}))
		for _, m := range c.MemberIDs {
			paths = append(paths, pagePath(entry{Context: c.Name, NodeID: m}))
		}
	}
	ts := make([]tally, len(conns))
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c transport) {
			defer wg.Done()
			v := &visitor{etags: map[string]string{}}
			for j := i; j < len(paths); j += len(conns) {
				v.page(&env{}, c, &ts[i], paths[j], "")
			}
		}(i, c)
	}
	wg.Wait()
	for i := range ts {
		if ts[i].failed > 0 || ts[i].nviolations > 0 {
			return fmt.Errorf("warm-up: %d failed, %v", ts[i].failed, ts[i].violations)
		}
	}
	return nil
}

// fixedLen is the length of the fixed-rate phase: two thirds of the
// timed traffic; the max_rps search gets the rest.
func (r *runner) fixedLen() time.Duration {
	return time.Duration(r.seconds) * time.Second * 2 / 3
}

// errPoolEmpty reports that a resume phase would need more recorded
// visitors than are left.
var errPoolEmpty = errors.New("the recorded visitors ran out")

// phase schedules and runs one open-loop phase at rate. The writer
// joins every phase of a workload that writes.
func (r *runner) phase(s *session, rng *rand.Rand, rate float64, length, giveUp time.Duration) (*phaseResult, error) {
	next := func() *visitor {
		if r.w.resume {
			if s.used == len(s.pool) {
				return nil
			}
			s.used++
			return s.pool[s.used-1]
		}
		s.nextID++
		return newVisitor(s.nextID, r.seed)
	}
	visitors := schedule(rng, rate, length, r.w.resume, next)
	if r.w.resume && s.used == len(s.pool) {
		return nil, errPoolEmpty
	}
	if r.w.writes > 0 {
		fixedRate(s.writer, r.w.writes, length)
		visitors = append(visitors, s.writer)
	}
	return runPhase(s.conns, s.env, visitors, giveUp), nil
}

func (s *session) bytesRead() int64 {
	var n int64
	for _, w := range s.wires {
		n += w.read.Load()
	}
	return n
}

// endToEnd runs the workload against navserve and reports the
// end-to-end metrics.
func (r *runner) endToEnd() (*result, error) {
	res := &result{metrics: map[string]metric{}, unbounded: map[string]metric{}, bases: map[string]any{}}
	s, setups, err := r.start(setupRepeats)
	if err != nil {
		return nil, err
	}
	// setup_s is the CPU time navserve spends getting ready. Its
	// wall-clock time follows the CPU the hypervisor steals (see
	// benchmark/README.md); it is kept in the context line.
	var walls, cpus []time.Duration
	for _, st := range setups {
		walls, cpus = append(walls, st.wall), append(cpus, st.cpu)
	}
	sortDurations(walls)
	sortDurations(cpus)
	res.set("setup_s", quantile(cpus, 0.5).Seconds(), "s")
	res.unbounded["setup_wall_s"] = metric{quantile(walls, 0.5).Seconds(), "s"}

	rng := rand.New(rand.NewSource(r.seed))
	settled, err := r.settle(s, rng)
	if err != nil {
		return nil, err
	}
	fixedLen := r.fixedLen()
	steal0 := stolen()
	cpu0, err := s.ns.cpu()
	if err != nil {
		return nil, err
	}
	bytes0 := s.bytesRead()
	fixed, err := r.phase(s, rng, r.w.rate, fixedLen, 30*time.Second)
	if err != nil {
		return nil, err
	}
	cpu1, err := s.ns.cpu()
	if err != nil {
		return nil, err
	}
	bytes1 := s.bytesRead()
	res.bases["fixed_cpu_steal_share"] = stolen().share(steal0)
	// The peak is read before the max_rps search, whose load follows
	// how much CPU the machine grants the run.
	rss, err := s.ns.peakRSS()
	if err != nil {
		return nil, err
	}
	res.set("rss_mb_peak", float64(rss)/(1<<20), "MB")
	res.check(&fixed.tally)
	if fixed.requests == 0 || len(fixed.steps) < 1000 {
		return nil, fmt.Errorf("fixed-rate phase completed %d steps, %d requests", len(fixed.steps), fixed.requests)
	}
	p50, p99 := stepQuantiles(fixed.steps)
	res.unbounded["step_p50_ms"] = metric{p50, "ms"}
	res.unbounded["step_p99_ms"] = metric{p99, "ms"}
	res.set("server_cpu_us_per_req", float64(cpu1-cpu0)/float64(time.Microsecond)/float64(fixed.requests), "us")
	res.set("wire_bytes_per_req", float64(bytes1-bytes0)/float64(fixed.requests), "B")
	res.attempted = fixed.requests + fixed.aborted
	res.failed = fixed.failed + fixed.aborted
	sortDurations(fixed.late)
	res.bases["fixed_steps"] = len(fixed.steps)
	res.bases["fixed_requests"] = fixed.requests
	res.bases["fixed_late_p99_ms"] = ms(quantile(fixed.late, 0.99))
	mutations := append(settled, fixed.mutations...)
	if r.w.writes == 0 {
		// The probe runs once the fixed-rate phase's session writes have
		// reached the store, so it times the mutations, not the flusher.
		if err := quiesce(s.conns[0]); err != nil {
			return nil, err
		}
		var t tally
		for i := 0; i < probeMutations; i++ {
			s.writer.step(s.conns[0], s.env, &t)
		}
		res.check(&t)
		res.attempted += t.requests
		res.failed += t.failed
		mutations = t.mutations
	}

	maxRPS, trials, err := r.search(s, rng)
	if err != nil {
		return nil, err
	}
	for _, t := range trials {
		res.check(&t.res.tally)
		mutations = append(mutations, t.res.mutations...)
	}
	res.unbounded["max_rps"] = metric{maxRPS, "req/s"}
	res.bases["trials"] = trials

	if len(mutations) < 10 {
		return nil, fmt.Errorf("only %d mutations completed", len(mutations))
	}
	sortDurations(mutations)
	res.unbounded["mutation_p50_ms"] = metric{ms(quantile(mutations, 0.5)), "ms"}
	res.unbounded["mutation_p90_ms"] = metric{ms(quantile(mutations, 0.9)), "ms"}
	res.bases["mutations"] = len(mutations)

	if r.w.resume {
		t := verifyHistories(s)
		res.check(t)
		res.bases["histories_verified"] = len(s.pool)
	}
	return res, nil
}

// stepQuantiles is the exact nearest-rank p50 and p99 of the steps'
// latencies, in milliseconds.
func stepQuantiles(steps []stepSample) (p50, p99 float64) {
	l := latencies(steps)
	return ms(quantile(l, 0.5)), ms(quantile(l, 0.99))
}

// quiesce waits, for up to five seconds, until navserve's write-behind
// and retry queues are empty.
func quiesce(t transport) error {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		raw, err := getBody(t, "/healthz", "")
		if err != nil {
			return err
		}
		var h struct {
			Queue int `json:"persist_queue"`
			Retry int `json:"persist_retry_queue"`
		}
		if err := json.Unmarshal(raw, &h); err != nil {
			return fmt.Errorf("decoding /healthz: %w", err)
		}
		if h.Queue == 0 && h.Retry == 0 {
			break
		}
	}
	return nil
}

// trial is one step of the max_rps search.
type trial struct {
	Rate    float64 `json:"rate_steps_per_s"`
	P99     float64 `json:"p99_ms"`
	RPS     float64 `json:"completed_rps"`
	Aborted int     `json:"aborted"`
	Pass    bool    `json:"pass"`
	res     *phaseResult
}

// search finds the highest offered rate at which the trial's step p99
// stays within the workload's limit and the backlog drains: nothing is
// abandoned and the trial ends within one limit of its last due step. The first trial offers the
// workload's search rate; the rate moves by searchStep until one trial
// passes and one fails, then the bracket is bisected geometrically.
// max_rps is the request rate the highest passing trial completed, or 0
// if none passed.
func (r *runner) search(s *session, rng *rand.Rand) (float64, []trial, error) {
	length := (time.Duration(r.seconds)*time.Second - r.fixedLen()) / maxTrials
	lo, hi, loRPS := 0.0, 0.0, 0.0
	var trials []trial
	for len(trials) < maxTrials {
		rate := r.w.search
		switch {
		case lo > 0 && hi > 0:
			rate = math.Sqrt(lo * hi)
		case lo > 0:
			rate = lo * searchStep
		case hi > 0:
			rate = hi / searchStep
		}
		// An overloaded trial is abandoned once a step is a whole trial
		// late.
		p, err := r.phase(s, rng, rate, length, length)
		if errors.Is(err, errPoolEmpty) {
			break // resume: every recorded visitor has returned
		}
		if err != nil {
			return 0, nil, err
		}
		_, p99 := stepQuantiles(p.steps)
		t := trial{Rate: rate, P99: p99, RPS: float64(p.requests) / length.Seconds(), Aborted: p.aborted, res: p}
		t.Pass = p.aborted == 0 && p.failed == 0 && p99 <= ms(r.w.limit) && p.elapsed <= length+r.w.limit
		trials = append(trials, t)
		if t.Pass {
			lo, loRPS = rate, t.RPS
		} else {
			hi = rate
		}
		// Let the server drain what an overloaded trial left queued.
		time.Sleep(50 * time.Millisecond)
	}
	// When no trial passed, max_rps is 0 and the trials say why.
	return loRPS, trials, nil
}

// verifyHistories checks every recorded visitor's /history against the
// benchmark's mirror: for a visitor that returned, its recorded history
// plus the steps it took since; for one that did not, exactly what was
// recorded.
func verifyHistories(s *session) *tally {
	ts := make([]tally, len(s.conns))
	var wg sync.WaitGroup
	for i, c := range s.conns {
		wg.Add(1)
		go func(i int, c transport) {
			defer wg.Done()
			t := &ts[i]
			for j := i; j < len(s.pool); j += len(s.conns) {
				v := s.pool[j]
				resp, ok := v.get(c, t, &request{method: "GET", path: "/history", wantBody: true})
				if !ok {
					t.violate("visitor %d: GET /history failed", v.id)
					continue
				}
				var got history
				if err := json.Unmarshal(resp.body, &got); err != nil || !got.equal(v.hist) {
					t.violate("visitor %d (%s): /history %s, recorded %+v", v.id, v.cookie, resp.body, v.hist)
				}
			}
		}(i, c)
	}
	wg.Wait()
	var t tally
	for i := range ts {
		t.merge(&ts[i])
	}
	return &t
}

// context is the machine and run context printed with every result.
func (r *runner) context(res *result) map[string]any {
	model := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"workload":               r.name,
		"seed":                   r.seed,
		"seconds":                r.seconds,
		"nproc":                  runtime.NumCPU(),
		"gomaxprocs":             runtime.GOMAXPROCS(0),
		"connections":            r.nconn,
		"cpu_model":              model,
		"go_version":             runtime.Version(),
		"commit":                 treeID(),
		"fixed_rate_steps_per_s": r.w.rate,
		"latency_limit_ms":       ms(r.w.limit),
		"mutations_per_s":        r.w.writes,
		"unbounded":              res.unbounded,
		"bases":                  res.bases,
	}
}

// treeID fingerprints the source under test: the checkout the
// benchmark runs in need not be a git repository, so the commit is
// named by a hash of its Go sources and module files.
func treeID() string {
	h := sha256.New()
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod") {
			if raw, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(h, "%s %d\n", path, len(raw))
				h.Write(raw)
			}
		}
		return nil
	})
	return fmt.Sprintf("tree-%x", h.Sum(nil)[:8])
}
