// Package storagetest is the conformance suite every storage.Store
// backend must pass. Backend test files call Run with a Factory; the
// suite exercises the whole interface contract — value copy semantics,
// sorted scans, scans whose callback writes the store, generation
// stamping, concurrency under -race — and, for
// durable backends that provide Reopen, persistence across a simulated
// process restart.
package storagetest

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
)

// Factory opens stores for the suite.
type Factory struct {
	// Open returns a fresh, empty store. Called once per subtest; the
	// suite closes the store itself.
	Open func(t testing.TB) storage.Store
	// Reopen, when non-nil, closes st and returns a new handle onto the
	// same underlying data — a simulated process restart. Durable
	// backends provide it; leaving it nil skips the durability cases.
	Reopen func(t testing.TB, st storage.Store) storage.Store
}

// Run drives the conformance suite against the factory's backend.
func Run(t *testing.T, f Factory) {
	t.Run("PutGetRoundTrip", func(t *testing.T) {
		st := f.Open(t)
		defer st.Close()
		if err := st.Put("a", []byte("alpha")); err != nil {
			t.Fatal(err)
		}
		got, err := st.Get("a")
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "alpha" {
			t.Errorf("Get(a) = %q, want alpha", got)
		}
		// Overwrite replaces.
		if err := st.Put("a", []byte("beta")); err != nil {
			t.Fatal(err)
		}
		if got, _ := st.Get("a"); string(got) != "beta" {
			t.Errorf("Get(a) after overwrite = %q, want beta", got)
		}
	})

	t.Run("MissingKey", func(t *testing.T) {
		st := f.Open(t)
		defer st.Close()
		if _, err := st.Get("nope"); !errors.Is(err, storage.ErrNotFound) {
			t.Errorf("Get(missing) err = %v, want ErrNotFound", err)
		}
	})

	t.Run("Delete", func(t *testing.T) {
		st := f.Open(t)
		defer st.Close()
		if err := st.Put("a", []byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := st.Delete("a"); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Get("a"); !errors.Is(err, storage.ErrNotFound) {
			t.Errorf("Get after Delete err = %v, want ErrNotFound", err)
		}
		// Deleting an absent key is not an error.
		if err := st.Delete("never-existed"); err != nil {
			t.Errorf("Delete(absent) = %v, want nil", err)
		}
	})

	t.Run("ValueCopySemantics", func(t *testing.T) {
		st := f.Open(t)
		defer st.Close()
		in := []byte("original")
		if err := st.Put("k", in); err != nil {
			t.Fatal(err)
		}
		copy(in, "XXXXXXXX") // caller reuses its slice
		out, err := st.Get("k")
		if err != nil {
			t.Fatal(err)
		}
		if string(out) != "original" {
			t.Errorf("store aliased the caller's Put slice: %q", out)
		}
		copy(out, "YYYYYYYY") // caller scribbles on the returned slice
		again, _ := st.Get("k")
		if string(again) != "original" {
			t.Errorf("store aliased its Get result: %q", again)
		}
	})

	t.Run("BinaryValues", func(t *testing.T) {
		st := f.Open(t)
		defer st.Close()
		val := []byte("line1\nline2\x00\xff\n")
		if err := st.Put("bin\n0", val); err != nil {
			t.Fatal(err)
		}
		got, err := st.Get("bin\n0")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, val) {
			t.Errorf("binary value mangled: %q != %q", got, val)
		}
		if err := st.Put("empty", nil); err != nil {
			t.Fatal(err)
		}
		if got, err := st.Get("empty"); err != nil || len(got) != 0 {
			t.Errorf("empty value: %q, %v", got, err)
		}
	})

	t.Run("ScanPrefixSorted", func(t *testing.T) {
		st := f.Open(t)
		defer st.Close()
		for _, k := range []string{"b/2", "a/3", "a/1", "a/2", "c"} {
			if err := st.Put(k, []byte("v:"+k)); err != nil {
				t.Fatal(err)
			}
		}
		var keys []string
		err := st.Scan("a/", func(k string, v []byte) error {
			keys = append(keys, k)
			if string(v) != "v:"+k {
				t.Errorf("Scan value for %s = %q", k, v)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		want := []string{"a/1", "a/2", "a/3"}
		if fmt.Sprint(keys) != fmt.Sprint(want) {
			t.Errorf("Scan(a/) keys = %v, want %v", keys, want)
		}
		// A scan error from fn stops the scan and propagates.
		sentinel := errors.New("stop")
		calls := 0
		err = st.Scan("a/", func(string, []byte) error {
			calls++
			return sentinel
		})
		if !errors.Is(err, sentinel) || calls != 1 {
			t.Errorf("Scan error propagation: err=%v calls=%d", err, calls)
		}
	})

	t.Run("ScanCallbackWrites", func(t *testing.T) {
		st := f.Open(t)
		defer st.Close()
		// held lists every value each key has held, "" standing for none.
		held := map[string][]string{}
		put := func(k, v string) {
			if err := st.Put(k, []byte(v)); err != nil {
				t.Error(err)
			}
			held[k] = append(held[k], v)
		}
		const n = 12
		index := map[string]int{}
		key := func(i int) string { return fmt.Sprintf("s/%02d", i) }
		for i := 0; i < n; i++ {
			index[key(i)] = i
			put(key(i), key(i)+"=v0")
		}
		// The callback reads the key it is given, rewrites the next key,
		// deletes the one after it every third call, and adds a key the
		// scan began without.
		got := map[string]string{}
		done := make(chan error, 1)
		go func() {
			done <- st.Scan("s/", func(k string, v []byte) error {
				got[k] = string(v) // a caller that keeps the value copies it
				now := held[k][len(held[k])-1]
				if w, err := st.Get(k); now == "" && !errors.Is(err, storage.ErrNotFound) ||
					now != "" && (err != nil || string(w) != now) {
					t.Errorf("Get(%s) inside Scan = %q, %v; want %q", k, w, err, now)
				}
				i, ok := index[k]
				if !ok {
					return nil
				}
				if i+1 < n {
					put(key(i+1), fmt.Sprintf("%s=v1, written at %s", key(i+1), k))
				}
				if i+2 < n && i%3 == 0 {
					if err := st.Delete(key(i + 2)); err != nil {
						t.Error(err)
					}
					held[key(i+2)] = append(held[key(i+2)], "")
				}
				put(fmt.Sprintf("s/%02d/new", i), "added during the scan")
				return nil
			})
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("a Scan whose callback calls Get, Put and Delete did not finish")
		}
		for k, v := range got {
			if v == "" || !slices.Contains(held[k], v) {
				t.Errorf("Scan delivered %s = %q, a value it never held (%q)", k, v, held[k])
			}
		}
		for i := 0; i < n; i++ {
			if _, ok := got[key(i)]; !ok && !slices.Contains(held[key(i)], "") {
				t.Errorf("Scan skipped %s, which was never deleted", key(i))
			}
		}
	})

	t.Run("Generation", func(t *testing.T) {
		st := f.Open(t)
		defer st.Close()
		g, err := st.Generation()
		if err != nil || g != 0 {
			t.Errorf("initial Generation = %d, %v; want 0, nil", g, err)
		}
		if err := st.SetGeneration(42); err != nil {
			t.Fatal(err)
		}
		if g, _ := st.Generation(); g != 42 {
			t.Errorf("Generation = %d, want 42", g)
		}
	})

	t.Run("Closed", func(t *testing.T) {
		st := f.Open(t)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Errorf("second Close = %v, want nil", err)
		}
		if _, err := st.Get("k"); !errors.Is(err, storage.ErrClosed) {
			t.Errorf("Get after Close err = %v, want ErrClosed", err)
		}
		if err := st.Put("k", nil); !errors.Is(err, storage.ErrClosed) {
			t.Errorf("Put after Close err = %v, want ErrClosed", err)
		}
	})

	t.Run("Concurrency", func(t *testing.T) {
		st := f.Open(t)
		defer st.Close()
		const workers = 8
		const perWorker = 50
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					key := fmt.Sprintf("w%d/k%d", w, i)
					if err := st.Put(key, []byte(key)); err != nil {
						t.Error(err)
						return
					}
					if v, err := st.Get(key); err != nil || string(v) != key {
						t.Errorf("Get(%s) = %q, %v", key, v, err)
						return
					}
					if i%3 == 0 {
						_ = st.Delete(key)
					}
					_ = st.SetGeneration(uint64(i))
					_, _ = st.Generation()
					_ = st.Scan(fmt.Sprintf("w%d/", w), func(string, []byte) error { return nil })
				}
			}(w)
		}
		wg.Wait()
	})

	if f.Reopen == nil {
		return
	}

	t.Run("DurableAcrossReopen", func(t *testing.T) {
		st := f.Open(t)
		for i := 0; i < 20; i++ {
			if err := st.Put(fmt.Sprintf("k%02d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Delete("k07"); err != nil {
			t.Fatal(err)
		}
		if err := st.SetGeneration(9); err != nil {
			t.Fatal(err)
		}
		st = f.Reopen(t, st)
		defer st.Close()
		if g, _ := st.Generation(); g != 9 {
			t.Errorf("Generation after reopen = %d, want 9", g)
		}
		if _, err := st.Get("k07"); !errors.Is(err, storage.ErrNotFound) {
			t.Errorf("deleted key survived reopen: %v", err)
		}
		n := 0
		_ = st.Scan("k", func(k string, v []byte) error {
			n++
			return nil
		})
		if n != 19 {
			t.Errorf("keys after reopen = %d, want 19", n)
		}
		if v, err := st.Get("k13"); err != nil || string(v) != "v13" {
			t.Errorf("Get(k13) after reopen = %q, %v", v, err)
		}
	})
}
