package storage_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/storage"
	"repro/internal/storage/storagetest"
)

func TestFileConformance(t *testing.T) {
	storagetest.Run(t, storagetest.Factory{
		Open: func(t testing.TB) storage.Store {
			st, err := storage.OpenFile(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return st
		},
		Reopen: func(t testing.TB, st storage.Store) storage.Store {
			fs := st.(*storage.File)
			dir := fs.Dir()
			if err := fs.Close(); err != nil {
				t.Fatal(err)
			}
			st2, err := storage.OpenFile(dir)
			if err != nil {
				t.Fatal(err)
			}
			return st2
		},
	})
}

// TestFileTornTail simulates a crash mid-append: the log's final record
// is cut short, and reopening must recover everything before it.
func TestFileTornTail(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("survivor", []byte("intact")); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("victim", []byte("this record will be torn")); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: abandon the store with no final compaction
	// and shear bytes off the log's tail.
	if err := st.CloseWithoutFlush(); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, "log")
	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(logPath, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := storage.OpenFile(dir)
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	defer st2.Close()
	if v, err := st2.Get("survivor"); err != nil || string(v) != "intact" {
		t.Errorf("record before the tear lost: %q, %v", v, err)
	}
	if _, err := st2.Get("victim"); !errors.Is(err, storage.ErrNotFound) {
		t.Errorf("torn record resurrected: err = %v, want ErrNotFound", err)
	}
	// The store must stay writable after recovery.
	if err := st2.Put("victim", []byte("rewritten")); err != nil {
		t.Fatal(err)
	}
	if v, _ := st2.Get("victim"); string(v) != "rewritten" {
		t.Errorf("post-recovery write lost: %q", v)
	}
}

// TestFileCompaction drives the log past its threshold and checks the
// state survives the snapshot rewrite and a reopen from snapshot only.
func TestFileCompaction(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.OpenFile(dir, storage.WithCompactBytes(256))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("k%02d", i%10) // overwrites force garbage for compaction to drop
		if err := st.Put(key, []byte(strings.Repeat("x", 20)+fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := os.Stat(filepath.Join(dir, "snapshot"))
	if err != nil {
		t.Fatalf("no snapshot written after churn past threshold: %v", err)
	}
	if snap.Size() == 0 {
		t.Error("snapshot is empty")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := storage.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	n := 0
	_ = st2.Scan("k", func(k string, v []byte) error { n++; return nil })
	if n != 10 {
		t.Errorf("keys after compaction+reopen = %d, want 10", n)
	}
	if v, err := st2.Get("k09"); err != nil || !strings.HasSuffix(string(v), "49") {
		t.Errorf("latest overwrite lost: %q, %v", v, err)
	}
}

// TestFileCompactionProportionalToSnapshot: the log is compacted only
// once it outgrows the snapshot it would replace, not the floor alone,
// so rewriting a large state costs O(1) per logged byte.
func TestFileCompactionProportionalToSnapshot(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.OpenFile(dir, storage.WithCompactBytes(1024))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	stat := func(name string) os.FileInfo {
		t.Helper()
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return fi
	}
	// A 64 KiB record outgrows the 1 KiB floor: one compaction.
	if err := st.Put("state", []byte(strings.Repeat("s", 64<<10))); err != nil {
		t.Fatal(err)
	}
	if stat("log").Size() != 0 {
		t.Fatal("a record past the floor over an empty snapshot was not compacted")
	}
	snap := stat("snapshot")

	value := []byte(strings.Repeat("v", 1000))
	put := func(i int) {
		t.Helper()
		if err := st.Put(fmt.Sprintf("k%d", i%8), value); err != nil {
			t.Fatal(err)
		}
	}
	// Puts totalling less than the snapshot leave it untouched.
	i := 0
	for ; stat("log").Size()+2*int64(len(value)) < snap.Size(); i++ {
		put(i)
		if !os.SameFile(snap, stat("snapshot")) {
			t.Fatalf("snapshot rewritten after %d bytes of log, below its own %d", stat("log").Size(), snap.Size())
		}
	}
	// Puts totalling more trigger exactly one compaction: eight more
	// records cross the snapshot's size once, and the log they start
	// afterwards stays far below the new, larger snapshot.
	compactions := 0
	for n := 0; n < 8; n, i = n+1, i+1 {
		prev := stat("log").Size()
		put(i)
		if stat("log").Size() < prev {
			compactions++
		}
	}
	if compactions != 1 {
		t.Errorf("log growth past the snapshot compacted %d times, want 1", compactions)
	}
	if os.SameFile(snap, stat("snapshot")) {
		t.Error("snapshot was not rewritten")
	}
}

// TestFileStaleLogReplayIsIdempotent covers the crash window between the
// snapshot rename and the log truncation: replaying the stale log over
// the new snapshot must reproduce the same state.
func TestFileStaleLogReplayIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.OpenFile(dir, storage.WithCompactBytes(0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := st.Put(fmt.Sprintf("k%d", i), []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Preserve the pre-compaction log, force a compaction, then put the
	// stale log back — exactly the on-disk state after a crash between
	// rename and truncate.
	logPath := filepath.Join(dir, "log")
	stale, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := st.CloseWithoutFlush(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(logPath, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := storage.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	for i := 0; i < 5; i++ {
		if v, err := st2.Get(fmt.Sprintf("k%d", i)); err != nil || string(v) != fmt.Sprint(i) {
			t.Errorf("Get(k%d) = %q, %v", i, v, err)
		}
	}
}

// TestFileSingleWriterLock: a second process (here, a second handle)
// opening a live store directory must fail fast rather than share the
// log; the lock frees on Close.
func TestFileSingleWriterLock(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := storage.OpenFile(dir); err == nil {
		t.Fatal("second opener acquired a live store directory")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := storage.OpenFile(dir)
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	st2.Close()
}

func TestFileCorruptSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snapshot"), []byte("not a snapshot\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := storage.OpenFile(dir); err == nil {
		t.Error("corrupt snapshot accepted")
	}
}

// TestFileAbsurdLengthHeaderRejected: a corrupt header declaring a huge
// record length must come back as a clean error, not an allocation
// panic or OOM.
func TestFileAbsurdLengthHeaderRejected(t *testing.T) {
	for name, header := range map[string]string{
		"huge value":    "p 1 9223372036854775806\nkv\n",
		"huge key":      "d 999999999999\nk\n",
		"negative-ish":  "p 3 -1\nkey\n",
		"non-numeric":   "p one two\nxx\n",
		"unknown opkey": "z 3\nkey\n",
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "snapshot"), []byte(header), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := storage.OpenFile(dir); err == nil {
			t.Errorf("%s header accepted", name)
		}
	}
}

// TestFileLogBytes: the log holds each record in its documented
// encoding, byte for byte as fmt formats it, generations past the int64
// range and empty and large values included, and a compaction writes
// the snapshot in the same encoding.
func TestFileLogBytes(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.OpenFile(dir, storage.WithCompactBytes(0))
	if err != nil {
		t.Fatal(err)
	}
	large := strings.Repeat("x\n", 40<<10)
	var want strings.Builder
	for _, kv := range [][2]string{{"a", "1"}, {"site/links.xml", large}, {"empty", ""}, {"a", "2"}} {
		if err := st.Put(kv[0], []byte(kv[1])); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&want, "p %d %d\n%s%s\n", len(kv[0]), len(kv[1]), kv[0], kv[1])
	}
	if err := st.Delete("empty"); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&want, "d %d\n%s\n", len("empty"), "empty")
	const gen = 1<<64 - 2
	if err := st.SetGeneration(gen); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&want, "g %d\n", uint64(gen))
	if got, err := os.ReadFile(filepath.Join(dir, "log")); err != nil || string(got) != want.String() {
		t.Fatalf("log holds %q (%v), want %q", got, err, want.String())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	snapshot := fmt.Sprintf("g %d\np 1 1\na2\np 14 %d\nsite/links.xml%s\n", uint64(gen), len(large), large)
	if got, err := os.ReadFile(filepath.Join(dir, "snapshot")); err != nil || string(got) != snapshot {
		t.Fatalf("snapshot holds %q (%v), want %q", got, err, snapshot)
	}
}
