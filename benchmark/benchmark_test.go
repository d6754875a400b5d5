package main

import (
	"flag"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/server"
)

// exactQuantile is the nearest-rank quantile found by scanning sorted
// samples: the first sample with at least q of all samples at or below it.
func exactQuantile(samples []time.Duration, q float64) time.Duration {
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	for i, x := range s {
		if float64(i+1) >= q*float64(len(s)) {
			return x
		}
	}
	return 0
}

// TestStallChargedFromDue stalls the server once for 100ms in a
// three-second schedule and checks that every step due during the stall
// is charged the wait, measured from its due time, that the quantiles a
// run reports are the exact ones of the samples, and that the reported
// p99 shows the stall.
func TestStallChargedFromDue(t *testing.T) {
	const rate, length, stall = 400, 3 * time.Second, 100 * time.Millisecond
	steps := int(rate * length.Seconds())
	var (
		mu                 sync.Mutex
		served             int
		stallFrom, stallTo time.Time
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		served++
		if served == steps/2 {
			stallFrom = time.Now()
			time.Sleep(stall)
			stallTo = time.Now()
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	visitors := make([]*visitor, steps)
	for i := range visitors {
		v := newVisitor(i, 1)
		v.returning = true
		v.hist.navigate(entry{Context: "C", NodeID: strconv.Itoa(i)})
		v.due = []time.Duration{time.Duration(i) * time.Second / rate}
		visitors[i] = v
	}
	conns := []transport{newWireConn(srv.Listener.Addr().String()), newWireConn(srv.Listener.Addr().String())}
	p := runPhase(conns, &env{site: &site{}}, visitors, 0)
	for _, c := range conns {
		c.(*wireConn).close()
	}
	if len(p.steps) != steps || p.failed != 0 || p.nviolations != 0 {
		t.Fatalf("completed %d of %d steps, %d failed, violations %v", len(p.steps), steps, p.failed, p.violations)
	}

	charged := 0
	for _, s := range p.steps {
		due := p.start.Add(s.due)
		if due.Before(stallFrom) || !due.Before(stallTo) {
			continue
		}
		charged++
		if wait := stallTo.Sub(due); s.latency < wait {
			t.Errorf("step due %v into the stall took %v, less than the %v it waited", due.Sub(stallFrom), s.latency, wait)
		}
	}
	if charged < 30 {
		t.Fatalf("only %d steps were due during the %v stall", charged, stall)
	}

	raw := make([]time.Duration, len(p.steps))
	for i, s := range p.steps {
		raw[i] = s.latency
	}
	sorted := latencies(p.steps)
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 1} {
		if got, want := quantile(sorted, q), exactQuantile(raw, q); got != want {
			t.Errorf("quantile %v = %v, exact %v", q, got, want)
		}
	}
	p50, p99 := stepQuantiles(p.steps)
	if want := ms(exactQuantile(raw, 0.5)); p50 != want {
		t.Errorf("step p50 %v, exact %v", p50, want)
	}
	if want := ms(exactQuantile(raw, 0.99)); p99 != want {
		t.Errorf("step p99 %v, exact %v", p99, want)
	}
	if p99 < ms(stall)/2 {
		t.Errorf("step p99 %vms hides the %v stall", p99, stall)
	}
}

// paperServer is a real navserve handler over the paper's museum.
func paperServer(t *testing.T) http.Handler {
	t.Helper()
	fs := flag.NewFlagSet("site", flag.ContinueOnError)
	var f cli.DatasetFlags
	f.Register(fs)
	app, err := f.BuildApp()
	if err != nil {
		t.Fatal(err)
	}
	return server.New(app, server.WithAPIToken(apiToken))
}

// corrupter answers the first 303 on path with a wrong target.
type corrupter struct {
	h         http.Handler
	path      string
	wrong     [2]string
	corrupted atomic.Bool
}

func (b *corrupter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != b.path || b.corrupted.Load() {
		b.h.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	b.h.ServeHTTP(rec, r)
	if loc := rec.Header().Get("Location"); rec.Code == http.StatusSeeOther && b.corrupted.CompareAndSwap(false, true) {
		wrong := b.wrong[0]
		if wrong == loc {
			wrong = b.wrong[1]
		}
		rec.Header().Set("Location", wrong)
	}
	for k, v := range rec.Header() {
		w.Header()[k] = v
	}
	w.WriteHeader(rec.Code)
	_, _ = w.Write(rec.Body.Bytes())
}

// drive walks visitors over h through real sockets, as a run does,
// with the edit writer making writes mutations a second among them.
func drive(t *testing.T, h http.Handler, writes float64) *phaseResult {
	t.Helper()
	srv := httptest.NewServer(h)
	defer srv.Close()
	conns := []transport{newWireConn(srv.Listener.Addr().String()), newWireConn(srv.Listener.Addr().String())}
	defer func() {
		for _, c := range conns {
			c.(*wireConn).close()
		}
	}()
	s, err := fetchSite(conns[0], apiToken)
	if err != nil {
		t.Fatal(err)
	}
	id := 0
	visitors := schedule(rand.New(rand.NewSource(7)), 2000, time.Second, false, func() *visitor {
		id++
		return newVisitor(id, 7)
	})
	if writes > 0 {
		w := &visitor{id: -1, rng: rand.New(rand.NewSource(7)), etags: map[string]string{}, w: newWriter(7, s)}
		fixedRate(w, writes, time.Second)
		visitors = append(visitors, w)
	}
	return runPhase(conns, &env{site: s, live: newLiveSite(s), token: apiToken}, visitors, 0)
}

// TestHistoryMirrorAgreesWithServer is the control: every answer of
// the real server matches the benchmark's mirror and site model, also
// while the writer flips structures and reorders contexts.
func TestHistoryMirrorAgreesWithServer(t *testing.T) {
	for _, writes := range []float64{0, 40} {
		p := drive(t, paperServer(t), writes)
		if p.nviolations != 0 || p.failed != 0 || len(p.steps) < 1000 {
			t.Fatalf("writes %v/s: %d steps, %d failed, %d violations: %v", writes, len(p.steps), p.failed, p.nviolations, p.violations)
		}
		if writes > 0 && len(p.mutations) < 30 {
			t.Fatalf("the writer made %d mutations", len(p.mutations))
		}
	}
}

// TestWrongTargetFailsTheRun checks that one wrong back, next or up
// target is found and makes the run incorrect, which exits non-zero.
func TestWrongTargetFailsTheRun(t *testing.T) {
	for _, path := range []string{"/go/back", "/go/next", "/go/up"} {
		t.Run(strings.TrimPrefix(path, "/go/"), func(t *testing.T) {
			b := &corrupter{h: paperServer(t), path: path,
				wrong: [2]string{"/ByAuthor/picasso/guitar.html", "/ByAuthor/dali/memory.html"}}
			p := drive(t, b, 0)
			if !b.corrupted.Load() {
				t.Fatalf("no %s redirect was served", path)
			}
			res := &result{}
			res.check(&p.tally)
			if res.correct() {
				t.Fatalf("a wrong %s target went unnoticed", path)
			}
			if !strings.Contains(strings.Join(res.violations, "\n"), path) {
				t.Errorf("violations do not name %s: %v", path, res.violations)
			}
		})
	}
}

// TestLiveSiteJudgesAcrossChange checks that a traversal answered while
// a structure flip is in flight may match the site before or after it,
// that its check waits for the writer to publish the site after, and
// that an answer neither side gives is still a violation.
func TestLiveSiteJudgesAcrossChange(t *testing.T) {
	mk := func(access string) *site {
		s, err := parseSite([]byte(`[{"name":"A:x","family":"A","access":"` + access + `","has_hub":true,"member_ids":["m1","m2"]},` +
			`{"name":"B:y","family":"B","access":"indexed-guided-tour","has_hub":true,"member_ids":["n1"]}]`))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	tour, index := mk(accessTour), mk(accessIndex)
	l := newLiveSite(tour)
	from := entry{Context: "A:x", NodeID: "m1"}
	next := func(status int, location string) traversal {
		return traversal{from: from, action: "next", status: status, location: location, lo: l.sent()}
	}
	var tl tally
	before := next(http.StatusConflict, "") // right only once the flip to index is live
	l.change()
	during := next(http.StatusSeeOther, "/A/x/m2.html") // right before the flip
	wrong := next(http.StatusSeeOther, "/A/x/m1.html")  // right on neither side
	for _, tr := range []traversal{before, during, wrong} {
		l.judge(tr, &tl)
	}
	if tl.nviolations != 0 {
		t.Fatalf("judged before the flip was published: %v", tl.violations)
	}
	l.publish(index, &tl)
	if tl.nviolations != 1 || !strings.Contains(tl.violations[0], "m1.html") {
		t.Fatalf("want one violation for the wrong target, got %v", tl.violations)
	}
	after := next(http.StatusSeeOther, "/A/x/m2.html") // sent after the flip: index has no next
	l.judge(after, &tl)
	if tl.nviolations != 2 {
		t.Fatalf("a next under index was not a violation: %v", tl.violations)
	}
}
