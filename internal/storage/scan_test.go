package storage_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/storage"
)

// TestFileScanAcrossCompactions: a Scan reads values ahead of its
// callback, and the callback's puts compact the store again and again,
// rewriting the snapshot the read-ahead buffer came from and truncating
// the log. Every value the Scan delivers is one its key held: the buffer
// never serves bytes from a replaced snapshot.
func TestFileScanAcrossCompactions(t *testing.T) {
	dir := t.TempDir()
	open := func() *storage.File {
		t.Helper()
		st, err := storage.OpenFile(dir, storage.WithCompactBytes(1))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	held := map[string][][]byte{}
	st := open()
	put := func(k string, v []byte) {
		if err := st.Put(k, v); err != nil {
			t.Error(err)
		}
		held[k] = append(held[k], v)
	}
	const n = 64
	key := func(i int) string { return fmt.Sprintf("k%02d", i) }
	value := func(i, version, pad int) []byte {
		return fmt.Appendf(nil, "%s:v%d:%s", key(i), version, strings.Repeat("x", pad))
	}
	for i := 0; i < n; i++ {
		put(key(i), value(i, 0, 40+i))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st = open()
	defer st.Close()
	snapshot := func() os.FileInfo {
		fi, err := os.Stat(filepath.Join(dir, "snapshot"))
		if err != nil {
			t.Fatal(err)
		}
		return fi
	}
	compactions, delivered := 0, 0
	err := st.Scan("k", func(k string, v []byte) error {
		delivered++
		if !slices.ContainsFunc(held[k], func(w []byte) bool { return bytes.Equal(v, w) }) {
			t.Fatalf("Scan delivered %s = %q, a value it never held", k, v)
		}
		var i int
		if _, err := fmt.Sscanf(k, "k%d", &i); err != nil {
			t.Fatal(err)
		}
		// Move the next key's value: another length, a new version.
		if i+1 < n {
			put(key(i+1), value(i+1, 1, 10+3*i%50))
		}
		// Overwrite a pad until a put compacts the store.
		before := snapshot()
		for os.SameFile(before, snapshot()) {
			put("pad", bytes.Repeat([]byte{'p'}, 4<<10))
		}
		compactions++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if delivered != n || compactions != n {
		t.Fatalf("Scan delivered %d of %d keys across %d compactions", delivered, n, compactions)
	}
}

// TestFileLargeValueRoundTrips: a value past the 64 KiB encode buffer
// is written from the caller's slice, after its header and key, not
// copied. It is logged in the record format byte for byte, reads back
// through Get and Scan, survives a compaction and a reopen, and a log
// cut inside it reopens without it, as a torn tail.
func TestFileLargeValueRoundTrips(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.OpenFile(dir, storage.WithCompactBytes(0))
	if err != nil {
		t.Fatal(err)
	}
	large := bytes.Repeat([]byte("links\n\x00"), 150<<10)
	want := map[string][]byte{"a": []byte("small"), "site/links.xml": large, "z": []byte("after")}
	for _, k := range []string{"a", "site/links.xml", "z"} {
		if err := st.Put(k, want[k]); err != nil {
			t.Fatal(err)
		}
	}
	log := fmt.Sprintf("p 1 5\nasmall\np 14 %d\nsite/links.xml%s\np 1 5\nzafter\n", len(large), large)
	if got, err := os.ReadFile(filepath.Join(dir, "log")); err != nil || string(got) != log {
		t.Fatalf("log holds %d bytes (%v), want the %d-byte record encoding", len(got), err, len(log))
	}
	check := func(st storage.Store, when string) {
		t.Helper()
		for k, v := range want {
			if got, err := st.Get(k); err != nil || !bytes.Equal(got, v) {
				t.Fatalf("%s: Get(%s) = %d bytes, %v; want %d", when, k, len(got), err, len(v))
			}
		}
		n := 0
		if err := st.Scan("", func(k string, v []byte) error {
			n++
			if !bytes.Equal(v, want[k]) {
				t.Fatalf("%s: Scan gave %s = %d bytes, want %d", when, k, len(v), len(want[k]))
			}
			return nil
		}); err != nil || n != len(want) {
			t.Fatalf("%s: Scan gave %d keys (%v), want %d", when, n, err, len(want))
		}
	}
	check(st, "written")
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	check(st, "compacted")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err = storage.OpenFile(dir); err != nil {
		t.Fatal(err)
	}
	check(st, "reopened")
	if err := st.CloseWithoutFlush(); err != nil {
		t.Fatal(err)
	}

	// A crash between the writes of a large record: its header, key and
	// half its value reached the log.
	crashed := t.TempDir()
	cut := strings.Index(log, "p 1 5\nzafter") - len(large)/2 - 1
	if err := os.WriteFile(filepath.Join(crashed, "log"), []byte(log[:cut]), 0o644); err != nil {
		t.Fatal(err)
	}
	if st, err = storage.OpenFile(crashed); err != nil {
		t.Fatalf("a log cut inside a large value did not reopen: %v", err)
	}
	defer st.Close()
	if _, err := st.Get("site/links.xml"); err == nil {
		t.Error("the torn large record was recovered")
	}
	if got, err := st.Get("a"); err != nil || string(got) != "small" {
		t.Errorf("Get(a) after the torn tail = %q, %v", got, err)
	}
}
