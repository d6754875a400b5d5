package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// dirBytes returns the size of the snapshot and the log in dir.
func dirBytes(t testing.TB, dir string) int64 {
	t.Helper()
	var n int64
	for _, name := range []string{snapshotFile, logFile} {
		fi, err := os.Stat(filepath.Join(dir, name))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		n += fi.Size()
	}
	return n
}

// deadBytes reads f's dead-byte count.
func deadBytes(f *File) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dead
}

// TestFileDeadBytesSurviveReopen: a store abandoned without a final
// compaction counts, once reopened, the dead bytes it counted before, so
// the same writes compact at the same point whether or not a reopen
// falls between them, and leave the same files.
func TestFileDeadBytesSurviveReopen(t *testing.T) {
	const floor = 4096
	write := func(st *File, from, to int) (compactions []int) {
		t.Helper()
		for i := from; i < to; i++ {
			before := st.logBytes
			var err error
			switch key := fmt.Sprintf("k%d", i%16); {
			case i%7 == 3:
				err = st.Delete(key)
			case i%11 == 5:
				err = st.SetGeneration(uint64(i))
			default:
				err = st.Put(key, bytes.Repeat([]byte{byte('a' + i%26)}, 50+i%200))
			}
			if err != nil {
				t.Fatal(err)
			}
			if st.logBytes < before {
				compactions = append(compactions, i)
			}
		}
		return compactions
	}
	open := func(dir string) *File {
		t.Helper()
		st, err := OpenFile(dir, WithCompactBytes(floor))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	straight, reopened := t.TempDir(), t.TempDir()
	a, b := open(straight), open(reopened)
	first := write(a, 0, 150)
	if got := write(b, 0, 150); fmt.Sprint(got) != fmt.Sprint(first) {
		t.Fatalf("identical writes compacted at %v and %v", first, got)
	}
	dead := deadBytes(b)
	if dead == 0 {
		t.Fatal("the writes left no dead bytes to count")
	}
	if err := b.CloseWithoutFlush(); err != nil {
		t.Fatal(err)
	}
	b = open(reopened)
	if got := deadBytes(b); got != dead {
		t.Fatalf("reopening counts %d dead bytes, the store counted %d", got, dead)
	}
	rest := write(a, 150, 600)
	if len(rest) == 0 {
		t.Fatal("the writes never compacted")
	}
	if got := write(b, 150, 600); fmt.Sprint(got) != fmt.Sprint(rest) {
		t.Fatalf("after a reopen the writes compacted at %v, without one at %v", got, rest)
	}
	for _, name := range []string{snapshotFile, logFile} {
		x, errX := os.ReadFile(filepath.Join(straight, name))
		y, errY := os.ReadFile(filepath.Join(reopened, name))
		if errX != nil || errY != nil || !bytes.Equal(x, y) {
			t.Errorf("%s differs with and without the reopen (%v, %v)", name, errX, errY)
		}
	}
	a.Close()
	b.Close()
}

// FuzzFileCompaction drives a file store with a fuzzed script of puts,
// deletes and generation stamps, with reopens (after a close without a
// final compaction) and forced compactions between them, against a map.
// After every step each Get answers as the map does; a reopen counts
// the dead bytes the running store counted; a forced compaction writes
// a snapshot of exactly the live bytes, and the generation stamp when
// the store has none; and the directory holds at most the live bytes
// plus max(floor, live bytes).
func FuzzFileCompaction(f *testing.F) {
	const floor = 512
	f.Add([]byte{0, 200, 0, 200, 0, 200, 0, 200, 0, 200, 0, 200})
	f.Add([]byte{0, 9, 1, 40, 2, 9, 3, 7, 4, 0, 0, 17, 2, 17, 4, 1, 0, 255, 0, 255, 0, 255, 4, 0})
	f.Add([]byte{3, 1, 3, 2, 3, 3, 4, 1, 3, 250, 4, 0, 2, 0})
	f.Add([]byte{0, 255, 5, 255, 0, 254, 5, 254, 0, 253, 5, 253, 0, 252, 5, 252, 4, 0, 2, 3, 2, 4, 4, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		dir := t.TempDir()
		open := func() *File {
			t.Helper()
			st, err := OpenFile(dir, WithCompactBytes(floor))
			if err != nil {
				t.Fatal(err)
			}
			return st
		}
		st := open()
		defer func() { st.Close() }()
		model := map[string][]byte{}
		var gen uint64
		for step := 0; len(script) >= 2; step++ {
			op, arg := script[0], script[1]
			script = script[2:]
			key := fmt.Sprintf("k%d", arg%8)
			var err error
			switch op % 6 {
			case 0, 5:
				value := bytes.Repeat([]byte{'a' + op%26}, int(arg)*3)
				err = st.Put(key, value)
				model[key] = value
			case 1, 2:
				err = st.Delete(key)
				delete(model, key)
			case 3:
				gen = uint64(arg) * 1000003
				err = st.SetGeneration(gen)
			case 4:
				if arg%2 == 0 {
					dead := deadBytes(st)
					if err := st.CloseWithoutFlush(); err != nil {
						t.Fatal(err)
					}
					st = open()
					if got := deadBytes(st); got != dead {
						t.Fatalf("step %d: reopening counts %d dead bytes, the store counted %d", step, got, dead)
					}
					break
				}
				st.mu.Lock()
				live, stamped := st.live(), st.genLen > 0
				st.mu.Unlock()
				if err = st.Compact(); err == nil {
					want := live
					if !stamped {
						want += int64(len(appendRecord(nil, record{op: opGen, gen: gen})))
					}
					if got := dirBytes(t, dir); got != want {
						t.Fatalf("step %d: compacting %d live bytes wrote %d", step, live, got)
					}
				}
			}
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			for i := 0; i < 8; i++ {
				k := fmt.Sprintf("k%d", i)
				v, err := st.Get(k)
				if want, ok := model[k]; ok != (err == nil) || !bytes.Equal(v, want) {
					t.Fatalf("step %d: Get(%s) = %q, %v; want %q", step, k, v, err, want)
				}
			}
			if g, err := st.Generation(); err != nil || g != gen {
				t.Fatalf("step %d: Generation() = %d, %v; want %d", step, g, err, gen)
			}
			st.mu.Lock()
			live := st.live()
			st.mu.Unlock()
			if size := dirBytes(t, dir); size > live+max(floor, live) {
				t.Fatalf("step %d: the directory holds %d bytes for %d live, over %d", step, size, live, live+max(floor, live))
			}
		}
	})
}
