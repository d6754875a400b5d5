package server

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/navigation"
	"repro/internal/storage"
)

// Write-behind persistence defaults; override the first two with
// WithFlushInterval and WithFlushBatch.
const (
	// DefaultFlushInterval is how often the background flusher drains
	// the dirty-session queue when no batch fills up first. It bounds
	// the durability window: a crash loses at most this much trail.
	DefaultFlushInterval = 100 * time.Millisecond
	// DefaultFlushBatch is how many sessions one flush round writes,
	// and the queue depth that triggers an early flush.
	DefaultFlushBatch = 256
	// DefaultRetryLimit bounds the failed-write retry queue. When the
	// store stays down long enough to fill it, the oldest entry is
	// dropped (and counted) to admit the newest — bounded memory under
	// unbounded failure.
	DefaultRetryLimit = 4096
	// retryMaxDelay caps the exponential retry backoff.
	retryMaxDelay = 5 * time.Second
)

// retryEntry is one failed session write awaiting its next attempt.
type retryEntry struct {
	sess     *navigation.Session // nil = tombstone (delete, not write)
	attempts int
	nextAt   time.Time
	seq      uint64 // enqueue order, for oldest-first dropping
}

// flusher is the write-behind half of session persistence: navigation
// steps mark the session dirty in a coalescing queue (keyed by session
// id — only the latest state is ever written, so ten steps between two
// flushes cost one Put, not ten), and a background goroutine drains the
// queue in bounded batches on an interval. The request path pays a map
// insert; the encoding and the store write happen off-request.
//
// A nil session in the queue is a tombstone: the session was evicted or
// its record discarded, and the durable record must be deleted instead
// of written. The flusher is the only code that writes or deletes
// session records, and every write happens under the drain lock, so one
// session's Put and Delete can never land out of order.
//
// With writeThrough (WithSyncPersistence) enqueue does not queue: it
// writes the record itself, under the drain lock, before returning —
// the path post-close stragglers take in either mode.
//
// A write the store rejects is not dropped: it moves to a bounded retry
// queue and is re-attempted with capped exponential backoff, so a store
// outage queues persistence instead of silently losing trails. Failures
// and successes feed the server's store-health breaker — enough
// consecutive failures flip the server into degraded mode (see
// degraded.go) until a write lands again.
type flusher struct {
	st     storage.Store
	ttl    time.Duration
	now    func() time.Time
	health *breaker

	mu     sync.Mutex
	dirty  map[string]*navigation.Session
	closed bool

	// retry holds failed writes keyed by session id, each with its
	// attempt count and earliest next attempt. A fresh enqueue for the
	// id supersedes the entry (latest state wins, and user activity
	// warrants an immediate attempt). Guarded by mu.
	retry      map[string]*retryEntry
	retrySeq   uint64
	retryLimit int
	dropped    atomic.Uint64

	// drainMu serializes flush rounds and write-throughs, so a
	// synchronous flushNow, a writeNow and the background loop never
	// interleave writes.
	drainMu sync.Mutex

	kick chan struct{}
	done chan struct{}
	wg   sync.WaitGroup

	batch        int
	interval     time.Duration
	writeThrough bool
	flushed      atomic.Uint64
}

// newFlusher starts the background flusher over st. With writeThrough
// every enqueue writes before it returns; the background loop then only
// drains retries.
func newFlusher(st storage.Store, ttl time.Duration, now func() time.Time, batch int, interval time.Duration, retryLimit int, health *breaker, writeThrough bool) *flusher {
	if batch < 1 {
		batch = 1
	}
	if interval <= 0 {
		interval = DefaultFlushInterval
	}
	if retryLimit < 1 {
		retryLimit = 1
	}
	f := &flusher{
		st:           st,
		ttl:          ttl,
		now:          now,
		health:       health,
		dirty:        map[string]*navigation.Session{},
		retry:        map[string]*retryEntry{},
		retryLimit:   retryLimit,
		kick:         make(chan struct{}, 1),
		done:         make(chan struct{}),
		batch:        batch,
		interval:     interval,
		writeThrough: writeThrough,
	}
	f.wg.Add(1)
	go f.run()
	return f
}

// enqueue marks a session dirty; the latest enqueue for an id wins, and
// supersedes any retry pending for the id — the write that happens next
// round carries this fresher state. In write-through mode, and after
// close — a late request must not lose its step just because shutdown
// started — the write happens here instead (see writeNow).
//
//repro:hotpath
func (f *flusher) enqueue(id string, sess *navigation.Session) {
	f.mu.Lock()
	if f.closed || f.writeThrough {
		f.mu.Unlock()
		//repro:allow(write-through mode and post-close stragglers write before returning)
		f.writeNow(id, sess)
		return
	}
	f.dirty[id] = sess
	delete(f.retry, id)
	depth := len(f.dirty)
	f.mu.Unlock()
	if depth >= f.batch {
		select {
		case f.kick <- struct{}{}:
		default:
		}
	}
}

// enqueueDelete queues a tombstone: the session was evicted or its
// record discarded, and the durable record dies with it. Any pending
// state write for the id is superseded.
func (f *flusher) enqueueDelete(id string) { f.enqueue(id, nil) }

// writeNow writes one session's state (or tombstone) before returning.
// It holds drainMu, so it cannot interleave with a flush round and land
// a Put/Delete pair for one id out of order, and so concurrent steps on
// one session write in the order they encode: the last write carries
// the final state. The id's pending and retrying entries are dropped
// first — this write supersedes them — and a failure is rescheduled the
// way a failed round's write is.
func (f *flusher) writeNow(id string, sess *navigation.Session) {
	f.drainMu.Lock()
	defer f.drainMu.Unlock()
	f.mu.Lock()
	delete(f.dirty, id)
	delete(f.retry, id)
	f.mu.Unlock()
	if err := f.write(id, sess); err != nil {
		f.reschedule(id, sess, 1)
	}
}

// depth reports how many sessions are waiting to be flushed.
func (f *flusher) depth() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.dirty)
}

// retryDepth reports how many failed writes await re-attempt.
func (f *flusher) retryDepth() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.retry)
}

// run is the background drain loop.
func (f *flusher) run() {
	defer f.wg.Done()
	ticker := time.NewTicker(f.interval)
	defer ticker.Stop()
	for {
		select {
		case <-f.done:
			f.flushNow()
			return
		case <-ticker.C:
		case <-f.kick:
		}
		f.flushRound()
	}
}

// flushRound drains one bounded batch.
func (f *flusher) flushRound() {
	f.drainMu.Lock()
	defer f.drainMu.Unlock()
	f.flushBatchLocked()
}

// flushNow drains the whole queue synchronously, promoting every
// pending retry to an immediate attempt first — the shutdown (and
// test) path gets one last chance to land everything, backoff or not.
func (f *flusher) flushNow() {
	f.drainMu.Lock()
	defer f.drainMu.Unlock()
	f.mu.Lock()
	for id, e := range f.retry {
		if _, pending := f.dirty[id]; !pending {
			f.dirty[id] = e.sess
		}
		delete(f.retry, id)
	}
	f.mu.Unlock()
	for f.flushBatchLocked() > 0 {
	}
}

// flushBatchLocked takes up to one batch off the queues — dirty
// sessions first, then retries whose backoff has elapsed — writes it,
// and reschedules failures. Returns how many entries it attempted.
// Callers must hold drainMu.
func (f *flusher) flushBatchLocked() int {
	now := f.now()
	f.mu.Lock()
	n := len(f.dirty)
	if n > f.batch {
		n = f.batch
	}
	ids := make([]string, 0, n)
	sessions := make([]*navigation.Session, 0, n)
	attempts := make([]int, 0, n)
	for id, sess := range f.dirty {
		ids = append(ids, id)
		sessions = append(sessions, sess)
		attempts = append(attempts, 0)
		delete(f.dirty, id)
		if len(ids) == n {
			break
		}
	}
	// Fill the rest of the batch with due retries.
	for id, e := range f.retry {
		if len(ids) >= f.batch {
			break
		}
		if e.nextAt.After(now) {
			continue
		}
		ids = append(ids, id)
		sessions = append(sessions, e.sess)
		attempts = append(attempts, e.attempts)
		delete(f.retry, id)
	}
	f.mu.Unlock()
	if len(ids) == 0 {
		return 0
	}
	start := time.Now()
	for i, id := range ids {
		if err := f.write(id, sessions[i]); err != nil {
			f.reschedule(id, sessions[i], attempts[i]+1)
		}
	}
	// The batch runs on the flusher goroutine (or a synchronous drain),
	// never on a request, so the clock reads are off the hot path.
	flushBatchDuration.Observe(time.Since(start))
	flushBatches.Inc()
	flushWrites.Add(uint64(len(ids)))
	return len(ids)
}

// reschedule queues a failed write for another attempt after a capped
// exponential backoff. The queue is bounded: when full, the oldest
// entry is dropped and counted — that session's trail loses durability
// (until its next step re-enqueues it), but memory stays bounded while
// the store is down.
func (f *flusher) reschedule(id string, sess *navigation.Session, attempts int) {
	delay := f.interval
	for i := 1; i < attempts && delay < retryMaxDelay; i++ {
		delay *= 2
	}
	if delay > retryMaxDelay {
		delay = retryMaxDelay
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, pending := f.dirty[id]; pending {
		// A fresh state was enqueued while this write was failing; the
		// pending write supersedes the failed one.
		return
	}
	if len(f.retry) >= f.retryLimit {
		var oldestID string
		var oldest *retryEntry
		for rid, e := range f.retry {
			if oldest == nil || e.seq < oldest.seq {
				oldestID, oldest = rid, e
			}
		}
		delete(f.retry, oldestID)
		f.dropped.Add(1)
		persistRetryDropped.Inc()
	}
	f.retrySeq++
	f.retry[id] = &retryEntry{
		sess:     sess,
		attempts: attempts,
		nextAt:   f.now().Add(delay),
		seq:      f.retrySeq,
	}
	persistRetries.Inc()
}

// write persists one session's current state (or deletes its record for
// a tombstone) and feeds the outcome to the health breaker: a store
// failure trips it toward degraded mode, a success resets it. The
// session is encoded here, at write time, so coalesced steps are
// captured by their final state. The store's error is returned so the
// caller can retry.
func (f *flusher) write(id string, sess *navigation.Session) error {
	var err error
	if sess == nil {
		err = f.st.Delete(sessionKeyPrefix + id)
	} else {
		var expires time.Time
		if f.ttl > 0 {
			expires = f.now().Add(f.ttl)
		}
		err = f.st.Put(sessionKeyPrefix+id, sess.AppendRecord(nil, expires))
	}
	if err != nil {
		persistErrors.Inc()
		f.health.fail("session persistence failing: " + err.Error())
		return err
	}
	f.flushed.Add(1)
	f.health.ok()
	return nil
}

// close stops the loop after a final full drain. Idempotent; enqueues
// arriving after close write through synchronously.
func (f *flusher) close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		f.wg.Wait()
		return
	}
	f.closed = true
	f.mu.Unlock()
	close(f.done)
	f.wg.Wait()
}
