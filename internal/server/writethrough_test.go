package server

import (
	"errors"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/navigation"
	"repro/internal/storage"
	"repro/internal/storage/faultstore"
)

// TestSyncWriteFailureIsRetried: under WithSyncPersistence a step whose
// write the store rejects still answers 200, and the write is not lost:
// it waits in the retry queue and lands once the store recovers.
func TestSyncWriteFailureIsRetried(t *testing.T) {
	fs := faultstore.New(storage.NewMem(), 1)
	if err := fs.Configure("put:fail=1"); err != nil {
		t.Fatal(err)
	}
	srv, ts := persistentServer(t, fs, WithFlushInterval(time.Hour))
	code, _, cookie := doGet(t, ts, "/ByAuthor/picasso/guitar.html", "")
	if code != http.StatusOK {
		t.Fatalf("page step with a failing write = %d, want 200", code)
	}
	if queued, _ := srv.RetryStats(); queued != 1 {
		t.Errorf("retry queue = %d after a failed sync write, want 1", queued)
	}

	fs.Recover()
	srv.FlushSessions()
	raw, err := fs.Get(sessionKeyPrefix + cookie)
	if err != nil {
		t.Fatalf("failed sync write never landed: %v", err)
	}
	rec, err := navigation.ParseRecord(raw)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State.NodeID != "guitar" {
		t.Errorf("persisted position = %q, want guitar", rec.State.NodeID)
	}
	if queued, dropped := srv.RetryStats(); queued != 0 || dropped != 0 {
		t.Errorf("RetryStats after recovery = (%d, %d), want (0, 0)", queued, dropped)
	}
}

// TestDiscardedRecordDeleteIsRetried: a corrupt record is discarded
// through the flusher in both persistence modes, so a delete the store
// rejects is retried rather than ignored, and the record does not
// survive the outage.
func TestDiscardedRecordDeleteIsRetried(t *testing.T) {
	for _, mode := range []struct {
		name   string
		server func(*testing.T, storage.Store, ...Option) *Server
	}{
		{"sync", func(t *testing.T, st storage.Store, opts ...Option) *Server {
			srv, _ := persistentServer(t, st, append(opts, WithFlushInterval(time.Hour))...)
			return srv
		}},
		{"write-behind", writeBehindServer},
	} {
		t.Run(mode.name, func(t *testing.T) {
			fs := faultstore.New(storage.NewMem(), 1)
			if err := fs.Put(sessionKeyPrefix+"deadbeef", []byte("{not json")); err != nil {
				t.Fatal(err)
			}
			if err := fs.Configure("delete:fail=1"); err != nil {
				t.Fatal(err)
			}
			srv := mode.server(t, fs)
			rec := newRecorder()
			srv.ServeHTTP(rec, newRequest("/session", "deadbeef"))
			if rec.Code != http.StatusOK || rec.Body.String() != "[]\n" {
				t.Fatalf("corrupt record: code=%d body=%q", rec.Code, rec.Body.String())
			}

			fs.Recover()
			srv.FlushSessions()
			if _, err := fs.Get(sessionKeyPrefix + "deadbeef"); !errors.Is(err, storage.ErrNotFound) {
				t.Errorf("corrupt record survives a failed discard: err=%v", err)
			}
		})
	}
}

// TestConcurrentSyncStepsPersistFinalState: concurrent steps on one
// cookie under WithSyncPersistence leave the stored record equal to the
// session's final state — writes land in the order they were encoded,
// so a stale snapshot never overwrites a fresh one.
func TestConcurrentSyncStepsPersistFinalState(t *testing.T) {
	st := storage.NewMem()
	srv, _ := persistentServer(t, st)
	cookie := step(t, srv, "/ByAuthor/picasso/avignon.html", "")
	pages := []string{
		"/ByAuthor/picasso/avignon.html",
		"/ByAuthor/picasso/guitar.html",
		"/ByAuthor/picasso/guernica.html",
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				rec := newRecorder()
				srv.ServeHTTP(rec, newRequest(pages[(g+i)%len(pages)], cookie))
				if rec.Code != http.StatusOK {
					t.Errorf("concurrent step = %d", rec.Code)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	sess := srv.sessions.get(cookie)
	if sess == nil {
		t.Fatal("session gone")
	}
	raw, err := st.Get(sessionKeyPrefix + cookie)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := navigation.ParseRecord(raw)
	if err != nil {
		t.Fatal(err)
	}
	if want := sess.State(); !reflect.DeepEqual(rec.State, want) {
		t.Errorf("stored record is not the final state:\n stored %+v\n final  %+v", rec.State, want)
	}
}
