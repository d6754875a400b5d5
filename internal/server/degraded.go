// Degraded-mode serving: a store-health breaker watches the
// persistence path and flips the server into degraded mode after
// enough consecutive failures. Degraded means the hot read plane keeps
// serving — woven pages come from the cache, sessions live in memory —
// while session persistence queues in the flusher's retry queue;
// /healthz reports "degraded" with the cause, and /readyz answers 503
// so a load balancer drains new traffic toward healthy replicas. One
// successful store write closes the breaker again.

package server

import (
	"encoding/json"
	"net/http"
	"sync"
)

// DefaultBreakerThreshold is how many consecutive persistence failures
// flip the server into degraded mode.
const DefaultBreakerThreshold = 3

// breaker is the store-health circuit: consecutive persistence
// failures past the threshold open it (degraded), one success closes
// it. The degraded bit is an atomic so the serving path can read it
// without the mutex; the failure bookkeeping is mutex-guarded — it
// only runs on the flusher goroutine and error paths.
type breaker struct {
	threshold int

	mu          sync.Mutex
	consecFails int
	cause       string
	degradedBit bool
}

// newBreaker builds a breaker; a non-positive threshold gets the
// default.
func newBreaker(threshold int) *breaker {
	if threshold < 1 {
		threshold = DefaultBreakerThreshold
	}
	return &breaker{threshold: threshold}
}

// fail records one persistence failure with its cause; crossing the
// threshold opens the breaker.
func (b *breaker) fail(cause string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecFails++
	if b.consecFails >= b.threshold && !b.degradedBit {
		b.degradedBit = true
		b.cause = cause
	}
}

// ok records one persistence success, closing the breaker.
func (b *breaker) ok() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecFails = 0
	if b.degradedBit {
		b.degradedBit = false
		b.cause = ""
	}
}

// state reports whether the breaker is open and why.
func (b *breaker) state() (degraded bool, cause string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.degradedBit, b.cause
}

// Degraded reports whether the server is in degraded mode — the
// persistence path is failing and session durability is queued, while
// cached reads keep serving — and the cause that opened the breaker.
func (s *serving) Degraded() (degraded bool, cause string) {
	return s.health.state()
}

// RetryStats reports the failed-write retry queue: how many sessions
// await a re-attempt and how many entries were dropped because the
// queue was full. Zeroes when persistence is off.
func (s *serving) RetryStats() (queued int, dropped uint64) {
	if s.flush == nil {
		return 0, 0
	}
	return s.flush.retryDepth(), s.flush.dropped.Load()
}

// serveReady answers GET /readyz, the load-balancer drain contract:
// 200 {"status":"ready"} while the server should receive traffic, 503
// {"status":"degraded","cause":...} while the persistence path is
// failing — cached reads still work (and /healthz still answers 200,
// the process is alive), but new sessions only accumulate queued
// durability, so a balancer should prefer healthy replicas until the
// store recovers.
//
//repro:nostore
func (s *serving) serveReady(w http.ResponseWriter) {
	// Readiness must never be served stale by an intermediary.
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("Content-Type", "application/json")
	degraded, cause := s.Degraded()
	body := struct {
		Status string `json:"status"`
		Cause  string `json:"cause,omitempty"`
	}{Status: "ready"}
	if degraded {
		body.Status = "degraded"
		body.Cause = cause
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_ = json.NewEncoder(w).Encode(body)
}
