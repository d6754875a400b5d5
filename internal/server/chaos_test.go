package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/navigation"
	"repro/internal/storage"
	"repro/internal/storage/faultstore"
)

// faultServer builds a write-behind server over a fault-injecting store,
// with the breaker at its most sensitive so one failed flush flips
// degraded mode.
func faultServer(t *testing.T, opts ...Option) (*Server, *faultstore.Store) {
	t.Helper()
	fs := faultstore.New(storage.NewMem(), 1)
	srv := writeBehindServer(t, fs, append([]Option{withBreakerThreshold(1)}, opts...)...)
	return srv, fs
}

// scanSessions returns the persisted session records keyed by id.
func scanSessions(t *testing.T, st storage.Store) map[string]navigation.Record {
	t.Helper()
	out := map[string]navigation.Record{}
	err := st.Scan(sessionKeyPrefix, func(key string, value []byte) error {
		rec, err := navigation.ParseRecord(value)
		if err != nil {
			return err
		}
		out[strings.TrimPrefix(key, sessionKeyPrefix)] = rec
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// readyStatus hits /readyz and returns the HTTP status plus the decoded
// body.
func readyStatus(t *testing.T, srv *Server) (int, map[string]string) {
	t.Helper()
	rec := newRecorder()
	srv.ServeHTTP(rec, newRequest("/readyz", ""))
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("readyz body %q: %v", rec.Body.String(), err)
	}
	if cc := rec.Header().Get("Cache-Control"); cc != "no-store" {
		t.Errorf("readyz Cache-Control = %q, want no-store", cc)
	}
	return rec.Code, body
}

// TestDegradedModeServesHotPages is the end-to-end chaos scenario: with
// the store rejecting every Put, hot cached pages keep answering 200,
// /readyz flips to 503, /healthz reports degraded with a cause — and
// once the store recovers, the retry queue drains with zero sessions
// lost.
func TestDegradedModeServesHotPages(t *testing.T) {
	srv, fs := faultServer(t)

	// Three visitors walk the tour while the store is healthy enough to
	// take reads (rehydration) but will reject all writes.
	if err := fs.Configure("put:rate=1"); err != nil {
		t.Fatal(err)
	}
	cookies := make([]string, 3)
	for i := range cookies {
		c := step(t, srv, "/ByAuthor/picasso/avignon.html", "")
		cookies[i] = step(t, srv, "/go/next", c)
	}

	// The flush hits the dead store: everything moves to the retry
	// queue and the breaker opens.
	srv.FlushSessions()
	if degraded, cause := srv.Degraded(); !degraded || cause == "" {
		t.Fatalf("Degraded() = (%v, %q), want open breaker with a cause", degraded, cause)
	}
	if queued, dropped := srv.RetryStats(); queued != len(cookies) || dropped != 0 {
		t.Fatalf("RetryStats = (%d, %d), want (%d, 0)", queued, dropped, len(cookies))
	}

	// Hot cached reads keep serving: degraded mode sheds durability, not
	// traffic.
	for _, c := range cookies {
		rec := newRecorder()
		srv.ServeHTTP(rec, newRequest("/ByAuthor/picasso/guernica.html", c))
		if rec.Code != http.StatusOK {
			t.Fatalf("hot page while degraded = %d, want 200", rec.Code)
		}
	}

	// /readyz pulls the instance out of rotation; /healthz (liveness)
	// stays 200 but reports the degradation and its cause.
	if code, body := readyStatus(t, srv); code != http.StatusServiceUnavailable ||
		body["status"] != "degraded" || body["cause"] == "" {
		t.Errorf("readyz while degraded = %d %v, want 503 degraded with cause", code, body)
	}
	rec := newRecorder()
	srv.ServeHTTP(rec, newRequest("/healthz", ""))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz while degraded = %d, want 200 (liveness, not readiness)", rec.Code)
	}
	var health struct {
		Status        string `json:"status"`
		DegradedCause string `json:"degraded_cause"`
		PersistQueue  int    `json:"persist_queue"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	// The hot reads above re-enqueued each session's fresh state,
	// superseding its retry entry — so the pending writes now sit in the
	// dirty queue, not the retry queue.
	if health.Status != "degraded" || health.DegradedCause == "" || health.PersistQueue != len(cookies) {
		t.Errorf("healthz payload = %+v, want degraded with cause and %d dirty", health, len(cookies))
	}

	// The store recovers; the next drain lands every queued write.
	fs.Recover()
	srv.FlushSessions()

	if degraded, _ := srv.Degraded(); degraded {
		t.Error("still degraded after a successful flush")
	}
	if code, body := readyStatus(t, srv); code != http.StatusOK || body["status"] != "ready" {
		t.Errorf("readyz after recovery = %d %v, want 200 ready", code, body)
	}
	if queued, dropped := srv.RetryStats(); queued != 0 || dropped != 0 {
		t.Errorf("RetryStats after recovery = (%d, %d), want (0, 0)", queued, dropped)
	}
	recs := scanSessions(t, fs)
	if len(recs) != len(cookies) {
		t.Fatalf("persisted %d sessions, want %d — sessions lost across the outage", len(recs), len(cookies))
	}
	for _, c := range cookies {
		rec, ok := recs[c]
		if !ok {
			t.Fatalf("session %s lost across the outage", c)
		}
		// Each visitor took three steps (avignon, next, plus the hot
		// guernica read above); the record must carry the final state,
		// not the one that existed when the write first failed.
		if len(rec.State.History) != 3 {
			t.Errorf("session %s persisted %d visits, want 3 (latest state)", c, len(rec.State.History))
		}
	}
}

// TestFlakyStoreLosesNoSessions is the regression test for the silent
// session-loss bug: write used to ignore Put/Delete errors, so a
// transiently failing store dropped trails on the floor. Now a flaky
// store — every write fails a few times before landing — must not lose
// a single session.
func TestFlakyStoreLosesNoSessions(t *testing.T) {
	srv, fs := faultServer(t)
	const visitors = 8
	cookies := make([]string, visitors)
	for i := range cookies {
		cookies[i] = step(t, srv, "/ByAuthor/picasso/avignon.html", "")
	}

	fs.Fail(faultstore.OpPut, 2*visitors) // every first (and second) attempt fails
	srv.FlushSessions()                   // all writes fail → retry queue
	if queued, _ := srv.RetryStats(); queued == 0 {
		t.Fatal("no retries queued — fault injection did not engage")
	}
	srv.FlushSessions() // still failing for some, then the script runs out
	srv.FlushSessions() // everything lands

	if queued, dropped := srv.RetryStats(); queued != 0 || dropped != 0 {
		t.Fatalf("RetryStats = (%d, %d) after recovery, want (0, 0)", queued, dropped)
	}
	recs := scanSessions(t, fs)
	if len(recs) != visitors {
		t.Fatalf("persisted %d sessions, want %d", len(recs), visitors)
	}
	for _, c := range cookies {
		if _, ok := recs[c]; !ok {
			t.Errorf("session %s lost", c)
		}
	}
}

// TestRetryQueueBounded: when the store stays dead and the retry queue
// fills, the oldest entry is dropped and counted — memory stays bounded
// under unbounded failure.
func TestRetryQueueBounded(t *testing.T) {
	srv, fs := faultServer(t, withRetryLimit(2))
	if err := fs.Configure("put:rate=1"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		step(t, srv, "/ByAuthor/picasso/avignon.html", "")
	}
	srv.FlushSessions()
	queued, dropped := srv.RetryStats()
	if queued != 2 {
		t.Errorf("retry queue = %d, want 2 (the limit)", queued)
	}
	if dropped != 2 {
		t.Errorf("dropped = %d, want 2 (oldest evicted)", dropped)
	}
}

// TestFreshStateSupersedesRetry: a session whose failed write is
// awaiting retry takes another step; the retry entry is replaced by the
// fresh state, and exactly the final state is what persists.
func TestFreshStateSupersedesRetry(t *testing.T) {
	srv, fs := faultServer(t)
	if err := fs.Configure("put:rate=1"); err != nil {
		t.Fatal(err)
	}
	cookie := step(t, srv, "/ByAuthor/picasso/avignon.html", "")
	srv.FlushSessions() // fails → retry queue
	if queued, _ := srv.RetryStats(); queued != 1 {
		t.Fatal("expected one queued retry")
	}

	cookie = step(t, srv, "/go/next", cookie) // fresh state supersedes the retry
	if queued, _ := srv.RetryStats(); queued != 0 {
		t.Error("retry entry should have been superseded by the fresh enqueue")
	}

	fs.Recover()
	srv.FlushSessions()
	recs := scanSessions(t, fs)
	rec, ok := recs[cookie]
	if !ok {
		t.Fatal("session not persisted after recovery")
	}
	if rec.State.NodeID != "guitar" {
		t.Errorf("persisted position = %q, want guitar (the superseding state)", rec.State.NodeID)
	}
}

// TestEvictionTombstoneRetries: a Delete the store rejects is retried
// like a Put — an evicted session's record must not survive a transient
// outage.
func TestEvictionTombstoneRetries(t *testing.T) {
	fs := faultstore.New(storage.NewMem(), 1)
	clock := time.Now()
	now := func() time.Time { return clock }
	srv := writeBehindServer(t, fs,
		withBreakerThreshold(1), WithSessionTTL(time.Minute), withClock(now))

	cookie := step(t, srv, "/ByAuthor/picasso/avignon.html", "")
	srv.FlushSessions() // record lands while healthy
	if _, err := fs.Get(sessionKeyPrefix + cookie); err != nil {
		t.Fatal(err)
	}

	fs.Fail(faultstore.OpDelete, 1)
	clock = clock.Add(2 * time.Minute)
	if n := srv.EvictExpiredSessions(); n != 1 {
		t.Fatalf("evicted = %d, want 1", n)
	}
	srv.FlushSessions() // tombstone fails → retry queue
	if _, err := fs.Get(sessionKeyPrefix + cookie); err != nil {
		t.Fatal("record vanished while the delete was failing:", err)
	}
	srv.FlushSessions() // retry promoted, delete lands
	if _, err := fs.Get(sessionKeyPrefix + cookie); !errors.Is(err, storage.ErrNotFound) {
		t.Errorf("evicted record survives the flaky delete: err=%v", err)
	}
}

// TestBreakerThreshold: the breaker needs threshold consecutive
// failures to open, and a single success closes it.
func TestBreakerThreshold(t *testing.T) {
	b := newBreaker(3)
	b.fail("x")
	b.fail("x")
	if degraded, _ := b.state(); degraded {
		t.Fatal("breaker open below threshold")
	}
	b.fail("store down")
	if degraded, cause := b.state(); !degraded || cause != "store down" {
		t.Fatalf("state = (%v, %q), want open with cause", degraded, cause)
	}
	b.ok()
	if degraded, _ := b.state(); degraded {
		t.Fatal("breaker still open after a success")
	}
	// Failures after the reset start counting from zero again.
	b.fail("y")
	b.fail("y")
	if degraded, _ := b.state(); degraded {
		t.Fatal("consecutive-failure count not reset by success")
	}
}
