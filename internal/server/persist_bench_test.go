package server

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/museum"
	"repro/internal/navigation"
	"repro/internal/storage"
)

func benchApp(b *testing.B) *core.App {
	b.Helper()
	app, err := core.NewApp(museum.PaperStore(), museum.Model(navigation.IndexedGuidedTour{}))
	if err != nil {
		b.Fatal(err)
	}
	return app
}

// benchSessionChurn measures the per-step cost persistence adds to
// navigation. Under WithSyncPersistence that is the full snapshot,
// marshal and put; on the default write-behind path it is the
// coalescing enqueue, with the background flusher doing the writing.
func benchSessionChurn(b *testing.B, st storage.Store, opts ...Option) {
	app := benchApp(b)
	srv := New(app, append([]Option{WithPersistence(st)}, opts...)...)
	defer srv.Close()
	sessions := make([]*navigation.Session, 256)
	ids := make([]string, len(sessions))
	for i := range sessions {
		sess := navigation.NewSession(app.Resolved())
		if err := sess.EnterContext("ByAuthor:picasso", "avignon"); err != nil {
			b.Fatal(err)
		}
		sessions[i] = sess
		ids[i] = fmt.Sprintf("%032d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.saveSession(ids[i%len(ids)], sessions[i%len(sessions)], reqTrace{})
	}
}

func BenchmarkSessionChurnMem(b *testing.B) {
	st := storage.NewMem()
	defer st.Close()
	benchSessionChurn(b, st, WithSyncPersistence())
}

func BenchmarkSessionChurnFile(b *testing.B) {
	st, err := storage.OpenFile(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	benchSessionChurn(b, st, WithSyncPersistence())
}

func BenchmarkSessionChurnWriteBehindMem(b *testing.B) {
	st := storage.NewMem()
	defer st.Close()
	benchSessionChurn(b, st)
}

func BenchmarkSessionChurnWriteBehindFile(b *testing.B) {
	st, err := storage.OpenFile(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	benchSessionChurn(b, st)
}

// BenchmarkColdStartRehydrate measures resuming a visitor after a
// restart: the durable record is read, decoded and re-resolved
// against the model. Sessions are dropped from memory between
// iterations so every lookup takes the rehydration path.
func BenchmarkColdStartRehydrate(b *testing.B) {
	st, err := storage.OpenFile(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	app := benchApp(b)
	const visitors = 1024
	trail := []navigation.Visit{
		{Context: "ByAuthor:picasso", NodeID: "avignon"},
		{Context: "ByAuthor:picasso", NodeID: "guitar"},
		{Context: "ByMovement:cubism", NodeID: "guitar"},
	}
	raw := navigation.AppendRecord(nil, navigation.Record{State: navigation.SessionState{
		Context: "ByMovement:cubism", NodeID: "guitar", History: trail,
	}})
	ids := make([]string, visitors)
	for i := range ids {
		ids[i] = fmt.Sprintf("%032d", i)
		if err := st.Put(sessionKeyPrefix+ids[i], raw); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh server each round simulates the restarted process: its
		// memory store is empty, so lookup must go through the backend.
		if i%visitors == 0 {
			b.StopTimer()
			srv := New(app, WithPersistence(st))
			b.StartTimer()
			benchSrv = srv
		}
		if sess := benchSrv.lookup(ids[i%visitors], reqTrace{}); sess == nil {
			b.Fatal("rehydration missed")
		}
	}
}

// benchSrv keeps the rehydration benchmark's server alive across the
// timer boundary without the compiler eliding it.
var benchSrv *Server
