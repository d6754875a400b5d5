package storage_test

import (
	"fmt"
	"testing"

	"repro/internal/storage"
)

// benchChurn measures the session-shaped write/read mix the server
// produces: put a record, read it back, occasionally delete — the cost
// of making every visitor's trail durable, per backend.
func benchChurn(b *testing.B, st storage.Store) {
	val := []byte(`{"state":{"context":"ByAuthor:picasso","node":"guitar","history":[{"Context":"ByAuthor:picasso","NodeID":"guitar"}]}}`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("session/%032d", i%1024)
		if err := st.Put(key, val); err != nil {
			b.Fatal(err)
		}
		if _, err := st.Get(key); err != nil {
			b.Fatal(err)
		}
		if i%16 == 0 {
			if err := st.Delete(key); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkChurnMem(b *testing.B) {
	st := storage.NewMem()
	defer st.Close()
	benchChurn(b, st)
}

func BenchmarkChurnFile(b *testing.B) {
	st, err := storage.OpenFile(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	benchChurn(b, st)
}

// BenchmarkFileReopen measures cold-start recovery: opening a store that
// already holds many session records (snapshot + log replay).
func BenchmarkFileReopen(b *testing.B) {
	dir := b.TempDir()
	st, err := storage.OpenFile(dir)
	if err != nil {
		b.Fatal(err)
	}
	val := []byte(`{"state":{"context":"ByAuthor:picasso","node":"guitar"}}`)
	for i := 0; i < 4096; i++ {
		if err := st.Put(fmt.Sprintf("session/%032d", i), val); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := storage.OpenFile(dir)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := st.Get("session/" + fmt.Sprintf("%032d", 99)); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkFileOpenResumeShaped measures opening the store the resume
// workload restarts over: 21,059 records in a 7.6 MB snapshot.
func BenchmarkFileOpenResumeShaped(b *testing.B) {
	dir := b.TempDir()
	writeResumeShaped(b, dir)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := storage.OpenFile(dir)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := st.CloseWithoutFlush(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkFileGet measures reading session records back out of a
// resume-shaped store, as a restarted server rehydrates its visitors.
func BenchmarkFileGet(b *testing.B) {
	dir := b.TempDir()
	writeResumeShaped(b, dir)
	st, err := storage.OpenFile(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer st.CloseWithoutFlush()
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = resumeSessionKey(i * (resumeSessions / len(keys)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Get(keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}
