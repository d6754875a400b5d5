package faultstore

import (
	"errors"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/storage/storagetest"
)

// TestConformance: a zero-fault decorator is a faithful Store — the
// full backend conformance suite passes through it.
func TestConformance(t *testing.T) {
	storagetest.Run(t, storagetest.Factory{
		Open: func(t testing.TB) storage.Store {
			return New(storage.NewMem(), 1)
		},
	})
}

// TestConformanceComposedWithInstrument: the chaos decorator and the
// metrics decorator stack, in the order navserve would wire them.
func TestConformanceComposedWithInstrument(t *testing.T) {
	storagetest.Run(t, storagetest.Factory{
		Open: func(t testing.TB) storage.Store {
			return storage.Instrument(New(storage.NewMem(), 1))
		},
	})
}

// TestFailNThenRecover: exactly the next N ops of the class fail, the
// N+1st succeeds, and other classes are untouched.
func TestFailNThenRecover(t *testing.T) {
	fs := New(storage.NewMem(), 1)
	fs.Fail(OpPut, 2)
	for i := 0; i < 2; i++ {
		if err := fs.Put("k", []byte("v")); !errors.Is(err, ErrInjected) {
			t.Fatalf("Put %d = %v, want ErrInjected", i, err)
		}
	}
	if err := fs.Put("k", []byte("v")); err != nil {
		t.Fatalf("Put after burst = %v, want nil", err)
	}
	if _, err := fs.Get("k"); err != nil {
		t.Fatalf("Get during Put burst scripting = %v, want nil", err)
	}
	st := fs.Stats(OpPut)
	if st.Attempts != 3 || st.Injected != 2 {
		t.Errorf("put stats = %+v, want 3 attempts, 2 injected", st)
	}
}

// TestFailRateDeterministic: the same seed produces the same failure
// pattern — a failing chaos run replays exactly.
func TestFailRateDeterministic(t *testing.T) {
	pattern := func(seed int64) []bool {
		fs := New(storage.NewMem(), seed)
		fs.FailRate(OpGet, 0.5)
		_ = fs.Put("k", []byte("v")) // Put is unscripted
		var out []bool
		for i := 0; i < 64; i++ {
			_, err := fs.Get("k")
			out = append(out, err != nil)
		}
		return out
	}
	a, b := pattern(42), pattern(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 42 diverged at op %d", i)
		}
	}
	sawFail, sawOK := false, false
	for _, failed := range a {
		if failed {
			sawFail = true
		} else {
			sawOK = true
		}
	}
	if !sawFail || !sawOK {
		t.Errorf("rate 0.5 over 64 ops: fail=%v ok=%v, want both", sawFail, sawOK)
	}
}

// TestLatencyInjection: a scripted delay actually holds the op.
func TestLatencyInjection(t *testing.T) {
	fs := New(storage.NewMem(), 1)
	fs.Latency(OpPut, 20*time.Millisecond)
	start := time.Now()
	if err := fs.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Errorf("Put returned after %v, want >= 20ms", d)
	}
}

// TestTornPutSurfacesAfterCrash: a torn Put reports success and reads
// stay intact — until Crash discards the shadow, after which the store
// holds the truncated bytes that actually "reached disk".
func TestTornPutSurfacesAfterCrash(t *testing.T) {
	fs := New(storage.NewMem(), 1)
	fs.TearPuts(1)
	val := []byte("0123456789")
	if err := fs.Put("k", val); err != nil {
		t.Fatalf("torn Put = %v, want reported success", err)
	}
	if got, err := fs.Get("k"); err != nil || string(got) != "0123456789" {
		t.Fatalf("Get before crash = %q, %v; want intact value", got, err)
	}
	// Scan sees the intact shadow too.
	fs.Scan("k", func(k string, v []byte) error {
		if string(v) != "0123456789" {
			t.Errorf("Scan before crash = %q, want intact value", v)
		}
		return nil
	})
	if n := fs.TornWrites(); n != 1 {
		t.Errorf("TornWrites = %d, want 1", n)
	}
	fs.Crash()
	got, err := fs.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "01234" {
		t.Errorf("Get after crash = %q, want the torn half", got)
	}
}

// TestWholePutAfterTornPut: a whole Put of a key a torn Put shadowed
// replaces the shadow, so Get and Scan answer the newer value before a
// crash and after it, never the torn Put's intact copy.
func TestWholePutAfterTornPut(t *testing.T) {
	fs := New(storage.NewMem(), 1)
	fs.TearPuts(1)
	if err := fs.Put("k", []byte("first-value")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Put("k", []byte("second")); err != nil {
		t.Fatal(err)
	}
	for _, when := range []string{"before crash", "after crash"} {
		if got, err := fs.Get("k"); err != nil || string(got) != "second" {
			t.Errorf("Get %s = %q, %v; want \"second\"", when, got, err)
		}
		scanned := map[string]string{}
		if err := fs.Scan("k", func(k string, v []byte) error {
			scanned[k] = string(v)
			return nil
		}); err != nil || len(scanned) != 1 || scanned["k"] != "second" {
			t.Errorf("Scan %s = %v, %v; want k=second", when, scanned, err)
		}
		fs.Crash()
	}
}

// TestRecoverClearsScript: Recover drops every pending failure mode.
func TestRecoverClearsScript(t *testing.T) {
	fs := New(storage.NewMem(), 1)
	fs.Fail(OpPut, 100)
	fs.FailRate(OpGet, 1)
	fs.TearPuts(5)
	fs.Recover()
	if err := fs.Put("k", []byte("value")); err != nil {
		t.Fatalf("Put after Recover = %v", err)
	}
	if got, err := fs.Get("k"); err != nil || string(got) != "value" {
		t.Fatalf("Get after Recover = %q, %v", got, err)
	}
	fs.Crash()
	if got, _ := fs.Get("k"); string(got) != "value" {
		t.Errorf("post-Recover Put was torn anyway: %q", got)
	}
}

// TestConfigureScenarios: the compact text syntax drives the same
// script the programmatic calls do, and bad clauses are rejected
// without applying anything.
func TestConfigureScenarios(t *testing.T) {
	fs := New(storage.NewMem(), 1)
	if err := fs.Configure("put:fail=2;get:rate=1;put:latency=1ms"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := fs.Put("k", []byte("v")); !errors.Is(err, ErrInjected) {
			t.Fatalf("scripted Put %d = %v, want ErrInjected", i, err)
		}
	}
	if err := fs.Put("k", []byte("v")); err != nil {
		t.Fatalf("Put after scripted burst = %v", err)
	}
	if _, err := fs.Get("k"); !errors.Is(err, ErrInjected) {
		t.Fatalf("Get with rate=1 = %v, want ErrInjected", err)
	}

	for _, bad := range []string{
		"put",              // no directive
		"put:fail",         // no value
		"fly:fail=1",       // unknown op
		"put:explode=1",    // unknown directive
		"put:fail=-1",      // negative
		"get:rate=2",       // out of range
		"get:tear=1",       // tear is put-only
		"put:latency=fast", // not a duration
	} {
		fresh := New(storage.NewMem(), 1)
		if err := fresh.Configure(bad); err == nil {
			t.Errorf("Configure(%q) accepted", bad)
		}
		// A rejected scenario leaves the store transparent.
		if err := fresh.Put("k", []byte("v")); err != nil {
			t.Errorf("store scripted by rejected scenario %q: %v", bad, err)
		}
	}

	// A wildcard clause scripts every class.
	wild := New(storage.NewMem(), 1)
	if err := wild.Configure("*:fail=1"); err != nil {
		t.Fatal(err)
	}
	if err := wild.Put("k", nil); !errors.Is(err, ErrInjected) {
		t.Errorf("wildcard Put = %v", err)
	}
	if _, err := wild.Get("k"); !errors.Is(err, ErrInjected) {
		t.Errorf("wildcard Get = %v", err)
	}
	if err := wild.Delete("k"); !errors.Is(err, ErrInjected) {
		t.Errorf("wildcard Delete = %v", err)
	}
	if err := wild.Scan("", func(string, []byte) error { return nil }); !errors.Is(err, ErrInjected) {
		t.Errorf("wildcard Scan = %v", err)
	}
}

// TestNamePropagatesBackend: diagnostics name both layers.
func TestNamePropagatesBackend(t *testing.T) {
	fs := New(storage.NewMem(), 1)
	if got := fs.Name(); got != "fault(mem)" {
		t.Errorf("Name = %q, want fault(mem)", got)
	}
}
