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

// TestFileCompactionProportionalToSnapshot: a compaction waits until
// the dead bytes — records no key reaches any more — pass both the floor
// and the live bytes it would rewrite, so rewriting costs O(1) per
// logged byte. A log of live records alone is never rewritten, however
// far past the floor it grows; overwrites leave the snapshot untouched
// until their dead bytes cross max(floor, live), and crossing compacts
// exactly once.
func TestFileCompactionProportionalToSnapshot(t *testing.T) {
	const floor = 1024
	dir := t.TempDir()
	st, err := storage.OpenFile(dir, storage.WithCompactBytes(floor))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	size := func(name string) int64 {
		t.Helper()
		fi, err := os.Stat(filepath.Join(dir, name))
		if os.IsNotExist(err) {
			return -1
		}
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	// The model: the live and dead bytes the records below leave.
	recLen := func(key string, n int) int64 { return int64(len(fmt.Sprintf("p %d %d\n%s\n", len(key), n, key)) + n) }
	if err := st.SetGeneration(1); err != nil {
		t.Fatal(err)
	}
	live, dead := int64(len("g 1\n")), int64(0)
	held := map[string]int{}
	// put writes an n-byte value under key and reports whether the
	// model expects it to compact.
	put := func(key string, n int) bool {
		t.Helper()
		if old, ok := held[key]; ok {
			live -= recLen(key, old)
			dead += recLen(key, old)
		}
		held[key] = n
		live += recLen(key, n)
		if err := st.Put(key, []byte(strings.Repeat("v", n))); err != nil {
			t.Fatal(err)
		}
		if dead > max(floor, live) {
			dead = 0
			return true
		}
		return false
	}

	// A 64 KiB record takes the log far past the floor, all of it live:
	// nothing is rewritten.
	if put("state", 64<<10) {
		t.Fatal("the model compacts a live-only log")
	}
	if size("snapshot") >= 0 || size("log") != live {
		t.Fatalf("a live-only log of %d bytes past the %d-byte floor was rewritten: snapshot %d, log %d bytes",
			live, floor, size("snapshot"), size("log"))
	}
	// Overwrites leave the snapshot unwritten until their dead bytes
	// pass the live bytes; the put that crosses compacts.
	i := 0
	for ; !put(fmt.Sprintf("k%d", i%8), 1000); i++ {
		if size("snapshot") >= 0 || size("log") != live+dead {
			t.Fatalf("put %d, %d dead bytes against %d live: snapshot %d, log %d bytes, want no snapshot and a log of %d",
				i, dead, live, size("snapshot"), size("log"), live+dead)
		}
	}
	if size("snapshot") != live || size("log") != 0 {
		t.Fatalf("crossing compacted to a %d-byte snapshot and a %d-byte log, want %d and 0", size("snapshot"), size("log"), live)
	}
	snap, err := os.Stat(filepath.Join(dir, "snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	// Exactly once: the next overwrites leave the new snapshot alone.
	for n := 0; n < 8; n, i = n+1, i+1 {
		if put(fmt.Sprintf("k%d", i%8), 1000) {
			t.Fatal("the model compacts twice")
		}
		if fi, err := os.Stat(filepath.Join(dir, "snapshot")); err != nil || !os.SameFile(snap, fi) {
			t.Fatalf("snapshot rewritten again %d puts after the crossing (%v)", n+1, err)
		}
	}
}

// TestFileOpensRecordsWrittenRaw: the record format is the one every
// earlier store wrote, so a directory of a snapshot and a log written
// byte by byte in it opens to the state the records describe.
func TestFileOpensRecordsWrittenRaw(t *testing.T) {
	dir := t.TempDir()
	snapshot := "g 7\np 1 1\na1\np 1 2\nbxy\np 10 5\nsite/c.xml<c/>\n\n"
	log := "p 1 3\nazzz\nd 1\nb\ng 9\np 5 0\nempty\np 1 2\nd\n\n\n"
	if err := os.WriteFile(filepath.Join(dir, "snapshot"), []byte(snapshot), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "log"), []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"a": "zzz", "site/c.xml": "<c/>\n", "empty": "", "d": "\n\n"}
	check := func(st storage.Store, when string) {
		t.Helper()
		got := map[string]string{}
		if err := st.Scan("", func(k string, v []byte) error { got[k] = string(v); return nil }); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: holds %q, want %q", when, got, want)
		}
		if gen, err := st.Generation(); err != nil || gen != 9 {
			t.Errorf("%s: generation %d (%v), want 9", when, gen, err)
		}
	}
	st, err := storage.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	check(st, "opened")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = storage.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	check(st, "compacted and reopened")
}

// TestFileLiveOnlyLogReopens: puts of distinct keys far past the floor
// leave a log and no snapshot, and that log reopens with every key, as
// any log replays.
func TestFileLiveOnlyLogReopens(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.OpenFile(dir, storage.WithCompactBytes(64))
	if err != nil {
		t.Fatal(err)
	}
	value := func(i int) string { return strings.Repeat(fmt.Sprint(i%10), 100+i) }
	for i := 0; i < 200; i++ {
		if err := st.Put(fmt.Sprintf("k%03d", i), []byte(value(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.CloseWithoutFlush(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot")); !os.IsNotExist(err) {
		t.Fatalf("a log of live records alone was compacted (%v)", err)
	}
	st, err = storage.OpenFile(dir, storage.WithCompactBytes(64))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 200; i++ {
		if v, err := st.Get(fmt.Sprintf("k%03d", i)); err != nil || string(v) != value(i) {
			t.Fatalf("k%03d reopened as %d bytes (%v), want %d", i, len(v), err, len(value(i)))
		}
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
