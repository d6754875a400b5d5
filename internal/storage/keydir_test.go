package storage_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/storage"
)

// A resume-shaped store holds what the resume workload's store holds
// when navserve restarts over it: 20,000 session records of 234 B and
// 1,059 site documents of 1.8 KB.
const (
	resumeSessions     = 20000
	resumeSessionBytes = 234
	resumeDocs         = 1059
	resumeDocBytes     = 1800
)

// resumeSessionKey is the i-th session's key, shaped as the server's.
func resumeSessionKey(i int) string { return fmt.Sprintf("session/%032x", i) }

// writeResumeShaped fills dir with a resume-shaped store, closed so that
// every record sits in one snapshot.
func writeResumeShaped(tb testing.TB, dir string) {
	tb.Helper()
	st, err := storage.OpenFile(dir, storage.WithCompactBytes(0))
	if err != nil {
		tb.Fatal(err)
	}
	session := bytes.Repeat([]byte("s"), resumeSessionBytes)
	for i := 0; i < resumeSessions; i++ {
		if err := st.Put(resumeSessionKey(i), session); err != nil {
			tb.Fatal(err)
		}
	}
	doc := bytes.Repeat([]byte("d"), resumeDocBytes)
	for i := 0; i < resumeDocs; i++ {
		if err := st.Put(fmt.Sprintf("site/data/painting%04d.xml", i), doc); err != nil {
			tb.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		tb.Fatal(err)
	}
}

// heapAfterGC returns the live heap once garbage has been collected.
func heapAfterGC() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestFileOpenResumeShapedRetainsKeysOnly: opening a resume-shaped
// store keeps its keys and value locations, not its 7.6 MB of values,
// and replay allocates per block of keys and once for the directory it
// sizes, not per record.
func TestFileOpenResumeShapedRetainsKeysOnly(t *testing.T) {
	dir := t.TempDir()
	writeResumeShaped(t, dir)
	before := heapAfterGC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	st, err := storage.OpenFile(dir)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	retained := int64(heapAfterGC()) - int64(before)
	mallocs := m1.Mallocs - m0.Mallocs
	if v, err := st.Get(resumeSessionKey(resumeSessions - 1)); err != nil || len(v) != resumeSessionBytes {
		t.Fatalf("Get after open = %d bytes, %v", len(v), err)
	}
	if err := st.CloseWithoutFlush(); err != nil {
		t.Fatal(err)
	}
	const records = resumeSessions + resumeDocs
	t.Logf("open: %d allocations, %d KiB retained (%d B per key)", mallocs, retained>>10, retained/records)
	if raceEnabled {
		t.Skip("race instrumentation skews heap sizes and allocation counts")
	}
	if retained > 2304<<10 {
		t.Errorf("opening a resume-shaped store retained %d KiB, want at most 2,304 KiB", retained>>10)
	}
	if mallocs >= 1000 {
		t.Errorf("opening %d records made %d allocations, want under 1,000", records, mallocs)
	}
}

// TestFilePutsKeepValuesOnDisk: 10,000 Puts of 4 KiB values, 40 MiB in
// all, grow the retained heap by their keys' directory entries only.
func TestFilePutsKeepValuesOnDisk(t *testing.T) {
	st, err := storage.OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	value := bytes.Repeat([]byte("v"), 4<<10)
	before := heapAfterGC()
	for i := 0; i < 10000; i++ {
		if err := st.Put(fmt.Sprintf("k%05d", i), value); err != nil {
			t.Fatal(err)
		}
	}
	grown := int64(heapAfterGC()) - int64(before)
	runtime.KeepAlive(st)
	t.Logf("10,000 Puts of 4 KiB grew the heap by %d KiB", grown>>10)
	if raceEnabled {
		t.Skip("race instrumentation skews heap sizes")
	}
	if grown >= 1<<20 {
		t.Errorf("10,000 Puts of 4 KiB grew the heap by %d KiB, want under 1 MiB", grown>>10)
	}
}

// keydirKeys is the key space of the differential test: nested
// prefixes, the empty key, and a key longer than a replay's 64 KiB read
// buffer.
var keydirKeys = []string{
	"", "a", "ab", "abc", "b/1", "b/2", "b/10", "session/x", "session/y",
	"site/links.xml", strings.Repeat("K", 70<<10),
}

// keydirPrefixes are the prefixes the differential test scans.
var keydirPrefixes = []string{"", "a", "ab", "b/", "b/1", "session/", "site/", "K", "zzz"}

// keydirValue draws a value: empty, one byte, a few bytes, past 4 KiB,
// or past both the 64 KiB encode buffer a store keeps and a replay's
// 64 KiB read buffer. Its bytes include newlines, the record
// terminator, and NULs.
func keydirValue(rng *rand.Rand) []byte {
	var n int
	switch p := rng.Intn(100); {
	case p < 10:
		n = 0
	case p < 20:
		n = 1
	case p < 75:
		n = 2 + rng.Intn(300)
	case p < 95:
		n = 4<<10 + 1 + rng.Intn(4<<10)
	default:
		n = 64<<10 + 1 + rng.Intn(8<<10)
	}
	v := make([]byte, n)
	for i := range v {
		v[i] = "ab\n\x00 p"[rng.Intn(6)]
	}
	return v
}

// TestFileMatchesReference is the key directory's exact slow twin: a
// seeded random run of Put, Delete, Get, Scan and SetGeneration against
// a file store and a plain map in lockstep, with compactions, reopens
// and crash-style reopens in between. After every operation every key's
// Get, a full Scan's order and contents, and the generation agree.
func TestFileMatchesReference(t *testing.T) {
	seeds, ops := []int64{1, 2, 3, 4}, 400
	if testing.Short() {
		seeds, ops = seeds[:2], 250
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			open := func() *storage.File {
				t.Helper()
				st, err := storage.OpenFile(dir, storage.WithCompactBytes(16<<10))
				if err != nil {
					t.Fatal(err)
				}
				return st
			}
			st := open()
			defer func() { st.Close() }()
			ref := map[string][]byte{}
			var gen uint64
			for i := 0; i < ops; i++ {
				key := keydirKeys[rng.Intn(len(keydirKeys))]
				var op string
				switch p := rng.Intn(100); {
				case p < 40:
					op = "put"
					v := keydirValue(rng)
					if err := st.Put(key, v); err != nil {
						t.Fatal(err)
					}
					ref[key] = bytes.Clone(v)
					clear(v) // the store keeps its own copy
				case p < 55:
					op = "delete"
					if err := st.Delete(key); err != nil {
						t.Fatal(err)
					}
					delete(ref, key)
				case p < 65:
					op = "get"
					if v, err := st.Get(key); err == nil && len(v) > 0 {
						v[0] ^= 0xff // the caller's copy
					}
				case p < 75:
					op = "scan"
					prefix := keydirPrefixes[rng.Intn(len(keydirPrefixes))]
					checkScan(t, st, ref, prefix)
				case p < 83:
					op = "setgeneration"
					gen = rng.Uint64()
					if err := st.SetGeneration(gen); err != nil {
						t.Fatal(err)
					}
				case p < 91:
					op = "compact"
					if err := st.Compact(); err != nil {
						t.Fatal(err)
					}
				case p < 96:
					op = "reopen"
					if err := st.Close(); err != nil {
						t.Fatal(err)
					}
					st = open()
				default:
					op = "crash"
					if err := st.CloseWithoutFlush(); err != nil {
						t.Fatal(err)
					}
					st = open()
				}
				checkState(t, st, ref, gen, fmt.Sprintf("op %d (%s %.20q)", i, op, key))
			}
		})
	}
}

// checkState compares every key's Get, a full Scan and the generation
// with the reference.
func checkState(t *testing.T, st storage.Store, ref map[string][]byte, gen uint64, after string) {
	t.Helper()
	for _, k := range keydirKeys {
		got, err := st.Get(k)
		want, ok := ref[k]
		switch {
		case !ok && !errors.Is(err, storage.ErrNotFound):
			t.Fatalf("after %s: Get(%.20q) = %d bytes, %v; want ErrNotFound", after, k, len(got), err)
		case ok && (err != nil || !bytes.Equal(got, want)):
			t.Fatalf("after %s: Get(%.20q) = %.20q, %v; want %.20q", after, k, got, err, want)
		}
	}
	checkScan(t, st, ref, "")
	if got, err := st.Generation(); err != nil || got != gen {
		t.Fatalf("after %s: Generation = %d, %v; want %d", after, got, err, gen)
	}
}

// checkScan compares a Scan of prefix with the reference's matching
// keys, in sorted order.
func checkScan(t *testing.T, st storage.Store, ref map[string][]byte, prefix string) {
	t.Helper()
	var want []string
	for k := range ref {
		if strings.HasPrefix(k, prefix) {
			want = append(want, k)
		}
	}
	sort.Strings(want)
	var got []string
	err := st.Scan(prefix, func(k string, v []byte) error {
		if !bytes.Equal(v, ref[k]) {
			t.Fatalf("Scan(%q) gave %.20q = %.20q, want %.20q", prefix, k, v, ref[k])
		}
		got = append(got, k)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, "\x00") != strings.Join(want, "\x00") || len(got) != len(want) {
		t.Fatalf("Scan(%q) keys = %.40q, want %.40q", prefix, got, want)
	}
}
