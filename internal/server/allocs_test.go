package server

import (
	"net/http"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/storage"
)

// Allocation budgets for the hot serve path. The pre-overhaul path
// (per-request serialization, hashing and string→byte copying) measured
// 10 allocs/op for a cached page and ~890 for links.xml; with bodies,
// ETags and lengths precomputed at weave time the remainder is header
// bookkeeping and the session step. The guards keep regressions from
// sneaking the serialization back onto the request path.
const (
	maxPageServeAllocs = 5
	maxDocServeAllocs  = 8
)

// serveAllocs measures allocations per ServeHTTP of one request.
func serveAllocs(t *testing.T, srv *Server, req *http.Request) float64 {
	t.Helper()
	w := &discardWriter{h: http.Header{}}
	w.reset()
	srv.ServeHTTP(w, req) // warm the caches outside the measurement
	return testing.AllocsPerRun(200, func() {
		w.reset()
		srv.ServeHTTP(w, req)
	})
}

// TestServeHotPathAllocs guards the per-request allocation count of the
// cached-page serve path.
func TestServeHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	srv, _ := testServer(t)
	rec := newRecorder()
	srv.ServeHTTP(rec, newRequest("/ByAuthor/picasso/guitar.html", ""))
	if rec.Code != http.StatusOK {
		t.Fatalf("warmup = %d", rec.Code)
	}
	req := newRequest("/ByAuthor/picasso/guitar.html", rec.cookie())
	if avg := serveAllocs(t, srv, req); avg > maxPageServeAllocs {
		t.Errorf("hot page serve = %.1f allocs/op, budget %d", avg, maxPageServeAllocs)
	}
}

// TestServeHotPathAllocsTraced: the same hot cached serve with tracing
// enabled and the request unsampled — the ISSUE's zero-extra-allocation
// guarantee. The span slot is pooled, the sampling decision is an
// atomic add, and no Traceparent header is emitted, so the budget is
// the untraced one.
func TestServeHotPathAllocsTraced(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	app := testApp(t)
	srv := New(app, WithTracing(obs.NewTracer(obs.TraceConfig{
		SampleEvery: 0, SlowThreshold: time.Hour, RingSize: 16,
	})))
	rec := newRecorder()
	srv.ServeHTTP(rec, newRequest("/ByAuthor/picasso/guitar.html", ""))
	if rec.Code != http.StatusOK {
		t.Fatalf("warmup = %d", rec.Code)
	}
	req := newRequest("/ByAuthor/picasso/guitar.html", rec.cookie())
	if avg := serveAllocs(t, srv, req); avg > maxPageServeAllocs {
		t.Errorf("traced hot page serve = %.1f allocs/op, budget %d", avg, maxPageServeAllocs)
	}
}

// TestServeDocAllocs guards the linkbase and data-document serve paths,
// which must not re-serialize per request.
func TestServeDocAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	srv, _ := testServer(t)
	for _, path := range []string{"/links.xml", "/data/guitar.xml"} {
		if avg := serveAllocs(t, srv, newRequest(path, "")); avg > maxDocServeAllocs {
			t.Errorf("%s serve = %.1f allocs/op, budget %d", path, avg, maxDocServeAllocs)
		}
	}
}

// TestEtagMatchesAllocs: revalidation header matching walks the
// candidate list in place — no strings.Split slice per request.
func TestEtagMatchesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	inm := `"g1-aaa", W/"g2-bbb", "g3-ccc"`
	if avg := testing.AllocsPerRun(1000, func() {
		if !etagMatches(inm, `"g3-ccc"`) {
			t.Fatal("no match")
		}
	}); avg != 0 {
		t.Errorf("etagMatches = %.2f allocs/op, want 0", avg)
	}
}

// TestEnqueueSteadyStateAllocs: marking an already-dirty session dirty
// again — the common case, every request re-enqueues its session — must
// not allocate.
func TestEnqueueSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	f := newFlusher(storage.NewMem(), 0, time.Now, 1<<20, time.Hour, DefaultRetryLimit, newBreaker(0), false)
	defer f.close()
	// A tombstone enqueue exercises the same path as a state write: one
	// map assignment under the lock.
	f.enqueue("s1", nil)
	if avg := testing.AllocsPerRun(1000, func() {
		f.enqueue("s1", nil)
	}); avg != 0 {
		t.Errorf("steady-state enqueue = %.2f allocs/op, want 0", avg)
	}
}
