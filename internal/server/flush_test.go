package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/museum"
	"repro/internal/navigation"
	"repro/internal/storage"
)

// recorder wraps httptest.ResponseRecorder with session-cookie access.
type recorder struct{ *httptest.ResponseRecorder }

func newRecorder() *recorder { return &recorder{httptest.NewRecorder()} }

func (r *recorder) cookie() string {
	for _, c := range r.Result().Cookies() {
		if c.Name == sessionCookie {
			return c.Value
		}
	}
	return ""
}

// countingStore wraps a storage.Store counting writes, so tests can
// assert how many Puts the write-behind queue actually coalesced to.
type countingStore struct {
	storage.Store
	puts    atomic.Int64
	deletes atomic.Int64
}

func (c *countingStore) Put(key string, value []byte) error {
	c.puts.Add(1)
	return c.Store.Put(key, value)
}

func (c *countingStore) Delete(key string) error {
	c.deletes.Add(1)
	return c.Store.Delete(key)
}

// writeBehindServer builds a server over the paper museum with
// write-behind persistence and a flush interval long enough that only
// explicit flushes (or batch triggers) write.
func writeBehindServer(t *testing.T, st storage.Store, opts ...Option) *Server {
	t.Helper()
	app, err := core.NewApp(museum.PaperStore(), museum.Model(navigation.IndexedGuidedTour{}))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(app, append([]Option{WithPersistence(st), WithFlushInterval(time.Hour)}, opts...)...)
	t.Cleanup(func() { srv.Close() })
	return srv
}

// step drives one request through the handler, returning the session
// cookie (issued or echoed).
func step(t *testing.T, srv *Server, path, cookie string) string {
	t.Helper()
	rec := newRecorder()
	req := newRequest(path, cookie)
	srv.ServeHTTP(rec, req)
	if rec.Code >= 400 {
		t.Fatalf("GET %s = %d", path, rec.Code)
	}
	if c := rec.cookie(); c != "" {
		return c
	}
	return cookie
}

// TestWriteBehindCoalescesSteps: several navigation steps between two
// flushes produce exactly one store write, carrying the latest state.
func TestWriteBehindCoalescesSteps(t *testing.T) {
	st := &countingStore{Store: storage.NewMem()}
	srv := writeBehindServer(t, st)
	cookie := step(t, srv, "/ByAuthor/picasso/avignon.html", "")
	cookie = step(t, srv, "/go/next", cookie)
	cookie = step(t, srv, "/go/next", cookie)

	if n := st.puts.Load(); n != 0 {
		t.Fatalf("store written before flush: %d puts", n)
	}
	if queued, _ := srv.PersistStats(); queued != 1 {
		t.Fatalf("queue depth = %d, want 1 (one dirty session)", queued)
	}

	srv.FlushSessions()

	if n := st.puts.Load(); n != 1 {
		t.Errorf("puts after flush = %d, want 1 (three steps coalesced)", n)
	}
	raw, err := st.Get(sessionKeyPrefix + cookie)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := navigation.ParseRecord(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.State.History) != 3 {
		t.Errorf("persisted history = %d visits, want 3", len(rec.State.History))
	}
	if rec.State.NodeID != "guernica" {
		t.Errorf("persisted position = %q, want guernica (the latest state)", rec.State.NodeID)
	}
	if queued, written := srv.PersistStats(); queued != 0 || written != 1 {
		t.Errorf("stats after flush = (%d queued, %d written), want (0, 1)", queued, written)
	}
}

// TestWriteBehindFlushesOnClose: Close drains the queue — a graceful
// shutdown loses no step.
func TestWriteBehindFlushesOnClose(t *testing.T) {
	st := storage.NewMem()
	srv := writeBehindServer(t, st)
	cookie := step(t, srv, "/ByAuthor/picasso/avignon.html", "")
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(sessionKeyPrefix + cookie); err != nil {
		t.Errorf("record missing after Close: %v", err)
	}
	// A step after Close still persists (synchronously): a request that
	// raced shutdown must not lose its trail.
	cookie2 := step(t, srv, "/ByAuthor/picasso/guitar.html", "")
	if _, err := st.Get(sessionKeyPrefix + cookie2); err != nil {
		t.Errorf("post-Close step not persisted: %v", err)
	}
}

// TestWriteBehindBatchTriggersEarlyFlush: filling the batch flushes
// without waiting for the interval.
func TestWriteBehindBatchTriggersEarlyFlush(t *testing.T) {
	st := storage.NewMem()
	srv := writeBehindServer(t, st, WithFlushBatch(1))
	cookie := step(t, srv, "/ByAuthor/picasso/avignon.html", "")
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := st.Get(sessionKeyPrefix + cookie); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("batch-full queue never flushed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWriteBehindEvictionSupersedesPendingWrite: a session evicted with
// a state write still queued must end up deleted, not resurrected — the
// tombstone supersedes the pending write.
func TestWriteBehindEvictionSupersedesPendingWrite(t *testing.T) {
	st := &countingStore{Store: storage.NewMem()}
	clock := time.Now()
	now := func() time.Time { return clock }
	srv := writeBehindServer(t, st, WithSessionTTL(time.Minute), withClock(now))
	cookie := step(t, srv, "/ByAuthor/picasso/avignon.html", "")

	clock = clock.Add(2 * time.Minute)
	if n := srv.EvictExpiredSessions(); n != 1 {
		t.Fatalf("evicted = %d, want 1", n)
	}
	srv.FlushSessions()

	if _, err := st.Get(sessionKeyPrefix + cookie); !errors.Is(err, storage.ErrNotFound) {
		t.Errorf("evicted session's record survives: err=%v", err)
	}
	if n := st.puts.Load(); n != 0 {
		t.Errorf("evicted session's pending state was still written (%d puts)", n)
	}
}

// TestHealthzReportsPersistenceQueue: the health payload carries the
// write-behind queue depth and the flushed-write total.
func TestHealthzReportsPersistenceQueue(t *testing.T) {
	st := storage.NewMem()
	srv := writeBehindServer(t, st)
	cookie := step(t, srv, "/ByAuthor/picasso/avignon.html", "")
	_ = cookie

	var health struct {
		PersistQueue   int    `json:"persist_queue"`
		PersistFlushed uint64 `json:"persist_flushed"`
	}
	rec := newRecorder()
	srv.ServeHTTP(rec, newRequest("/healthz", ""))
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.PersistQueue != 1 || health.PersistFlushed != 0 {
		t.Errorf("healthz before flush = %+v, want queue 1, flushed 0", health)
	}

	srv.FlushSessions()
	rec = newRecorder()
	srv.ServeHTTP(rec, newRequest("/healthz", ""))
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.PersistQueue != 0 || health.PersistFlushed != 1 {
		t.Errorf("healthz after flush = %+v, want queue 0, flushed 1", health)
	}
}

// TestSyncPersistenceCountsWrites: the synchronous path reports its
// writes through the same stats, with an always-empty queue.
func TestSyncPersistenceCountsWrites(t *testing.T) {
	st := storage.NewMem()
	_, ts := persistentServer(t, st)
	_, _, cookie := doGet(t, ts, "/ByAuthor/picasso/avignon.html", "")
	doGet(t, ts, "/go/next", cookie)

	var health struct {
		PersistQueue   int    `json:"persist_queue"`
		PersistFlushed uint64 `json:"persist_flushed"`
	}
	_, body, _ := doGet(t, ts, "/healthz", "")
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatal(err)
	}
	if health.PersistQueue != 0 || health.PersistFlushed != 2 {
		t.Errorf("sync healthz = %+v, want queue 0, flushed 2", health)
	}
}

// newRequest builds a GET with an optional session cookie.
func newRequest(path, cookie string) *http.Request {
	req, err := http.NewRequest(http.MethodGet, "http://test"+path, nil)
	if err != nil {
		panic(err)
	}
	if cookie != "" {
		req.AddCookie(&http.Cookie{Name: sessionCookie, Value: cookie})
	}
	return req
}
