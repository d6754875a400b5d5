package storage_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/storage"
)

// openLog opens a file store in a fresh directory whose log holds raw.
func openLog(t *testing.T, raw []byte) (*storage.File, error) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "log"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return storage.OpenFile(dir)
}

// fileState is what a reopen must reproduce: every record and the
// generation.
type fileState struct {
	data map[string]string
	gen  uint64
}

func stateOf(t *testing.T, st storage.Store) fileState {
	t.Helper()
	s := fileState{data: map[string]string{}}
	if err := st.Scan("", func(key string, value []byte) error {
		s.data[key] = string(value)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	gen, err := st.Generation()
	if err != nil {
		t.Fatal(err)
	}
	s.gen = gen
	return s
}

// TestFileTornHeaderAllocatesLittle: a torn log record whose header
// declares a 64 MiB key and a 64 MiB value is recovered as a torn tail
// without allocating what the header declares — the file holds two
// bytes of it.
func TestFileTornHeaderAllocatesLittle(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st, err := openLog(t, []byte("p 67108864 67108864\nab"))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("torn tail not recovered: %v", err)
	}
	defer st.Close()
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Errorf("opening a 22-byte log allocated %d KiB, want under 1 MiB", n>>10)
	}
	if got := stateOf(t, st); len(got.data) != 0 {
		t.Errorf("torn record recovered as %v", got.data)
	}
}

// logOp is one valid record of a scripted log and the offset its
// encoding ends at.
type logOp struct {
	op         byte
	key, value string
	gen        uint64
	end        int
}

// scriptLog turns fuzz bytes into a log of valid records, encoded by
// the documented format: each step reads an op byte and a length byte,
// then takes that many bytes as the value, under one of four keys so
// that steps overwrite and delete each other.
func scriptLog(b []byte) (log []byte, ops []logOp) {
	for len(b) >= 2 {
		op, n := b[0], int(b[1])%24
		b = b[2:]
		n = min(n, len(b))
		value := string(b[:n])
		b = b[n:]
		key := fmt.Sprintf("k%d", op>>2&3)
		switch op % 3 {
		case 0:
			log = fmt.Appendf(log, "p %d %d\n%s%s\n", len(key), len(value), key, value)
			ops = append(ops, logOp{op: 'p', key: key, value: value})
		case 1:
			log = fmt.Appendf(log, "d %d\n%s\n", len(key), key)
			ops = append(ops, logOp{op: 'd', key: key})
		case 2:
			log = fmt.Appendf(log, "g %d\n", n)
			ops = append(ops, logOp{op: 'g', gen: uint64(n)})
		}
		ops[len(ops)-1].end = len(log)
	}
	return log, ops
}

// FuzzFileLogReplay writes fuzzed bytes as a file store's log. Opening
// it never panics, and a store that opens reopens — through Close's
// compaction — to the same contents. A log of valid records built from
// the same bytes and cut at any offset recovers exactly the records
// that end before the cut: the rest is a torn tail.
func FuzzFileLogReplay(f *testing.F) {
	f.Add([]byte("p 2 3\nk0abc\nd 2\nk0\ng 7\n"), uint16(12))
	f.Add([]byte("p 67108864 67108864\nab"), uint16(0))
	f.Add([]byte("d 67108864\nk"), uint16(5))
	f.Add([]byte("p 2 1\nk0"), uint16(3))
	f.Add([]byte("p 1 1\nkv!\n"), uint16(1))
	f.Add([]byte("z 3\nkey\n"), uint16(0))
	f.Add([]byte{0, 5, 'h', 'e', 'l', 'l', 'o', 1, 0, 2, 9}, uint16(40))
	f.Add(fmt.Appendf(nil, "p 2 70000\nk0%s\ng 3\n", bytes.Repeat([]byte("v\n"), 35000)), uint16(9))
	f.Fuzz(func(t *testing.T, raw []byte, cut uint16) {
		if st, err := openLog(t, raw); err == nil {
			want := stateOf(t, st)
			dir := st.Dir()
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st2, err := storage.OpenFile(dir)
			if err != nil {
				t.Fatalf("reopening a store that opened: %v", err)
			}
			if got := stateOf(t, st2); !reflect.DeepEqual(got, want) {
				t.Errorf("reopened to %+v, want %+v", got, want)
			}
			st2.Close()
		}

		log, ops := scriptLog(raw)
		c := int(cut) % (len(log) + 1)
		want := fileState{data: map[string]string{}}
		for _, op := range ops {
			if op.end > c {
				break
			}
			switch op.op {
			case 'p':
				want.data[op.key] = op.value
			case 'd':
				delete(want.data, op.key)
			case 'g':
				want.gen = op.gen
			}
		}
		st, err := openLog(t, log[:c])
		if err != nil {
			t.Fatalf("valid log cut at %d of %d: %v", c, len(log), err)
		}
		defer st.Close()
		if got := stateOf(t, st); !reflect.DeepEqual(got, want) {
			t.Errorf("log cut at %d of %d recovered %+v, want %+v", c, len(log), got, want)
		}
	})
}
