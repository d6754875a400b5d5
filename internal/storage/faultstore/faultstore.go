// Package faultstore is a deterministic, seedable fault-injecting
// storage.Store decorator — the chaos half of the persistence
// subsystem. It wraps any backend and injects failures by scripted
// scenario: per-op-class failure rates, fail-N-then-recover bursts,
// latency injection, and torn writes (Put reports success but the
// durable bytes are truncated, visible only after a simulated crash).
// Everything it does is driven by a seeded PRNG, so a chaos test that
// fails replays bit-for-bit from its seed.
//
// The zero-fault decorator is a faithful Store: it passes the full
// storagetest conformance suite and composes with storage.Instrument
// in either order, so a chaos run sees the same op-latency series a
// production run would.
//
// Scenarios can be built programmatically (Fail, FailRate, Latency,
// TearPuts) or parsed from the compact text syntax Configure accepts:
//
//	op:directive=value[;op:directive=value...]
//
// where op is get|put|delete|scan|* and directive is one of
// fail=N (fail the next N ops), rate=F (fail each op with probability
// F), latency=D (delay each op by the Go duration D), and — Put only —
// tear=N (accept the next N Puts but persist truncated bytes). For
// example:
//
//	put:fail=3;get:rate=0.25;put:latency=5ms
//
// fails the next three Puts, then recovers; every Get flips a 25% coin;
// every Put waits 5ms first.
package faultstore

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/storage"
)

// ErrInjected is the error injected faults return (wrapped with the op
// class), so a test can tell a scripted failure from a real one.
var ErrInjected = errors.New("faultstore: injected fault")

// Op classifies store operations for fault scripting.
type Op uint8

const (
	// OpGet covers Store.Get.
	OpGet Op = iota
	// OpPut covers Store.Put.
	OpPut
	// OpDelete covers Store.Delete.
	OpDelete
	// OpScan covers Store.Scan.
	OpScan
	numOps
)

// String names the op class ("get", "put", "delete", "scan").
func (o Op) String() string {
	switch o {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpDelete:
		return "delete"
	case OpScan:
		return "scan"
	}
	return "unknown"
}

// opPlan is the scripted behavior of one op class.
type opPlan struct {
	// failN fails the next failN ops, then recovers.
	failN int
	// rate fails each op with this probability (0 disables).
	rate float64
	// latency delays each op before it runs.
	latency time.Duration
}

// OpStats reports what one op class has seen.
type OpStats struct {
	// Attempts counts operations that reached the decorator.
	Attempts uint64
	// Injected counts operations failed by script.
	Injected uint64
}

// Store decorates an inner storage.Store with scripted faults. Safe
// for concurrent use; the fault script itself may be mutated while
// operations are in flight (a chaos test flips failures on and off
// under live traffic).
type Store struct {
	inner storage.Store

	mu    sync.Mutex
	rng   *rand.Rand
	plans [numOps]opPlan
	stats [numOps]OpStats

	// tearN tears the next tearN Puts: the inner store receives
	// truncated bytes but the caller sees success, and shadow keeps the
	// intact value so reads stay consistent until Crash discards it —
	// the write the kernel acknowledged but the disk never finished.
	tearN  int
	torn   uint64
	shadow map[string][]byte
}

// New wraps inner with a fault script driven by the given PRNG seed.
// With no script configured the decorator is transparent.
func New(inner storage.Store, seed int64) *Store {
	return &Store{
		inner:  inner,
		rng:    rand.New(rand.NewSource(seed)),
		shadow: map[string][]byte{},
	}
}

// Fail fails the next n operations of class op with ErrInjected, then
// recovers — the fail-N-then-recover scenario.
func (f *Store) Fail(op Op, n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.plans[op].failN = n
}

// FailRate fails each operation of class op with probability rate
// (0 disables, 1 fails every op), drawn from the seeded PRNG.
func (f *Store) FailRate(op Op, rate float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.plans[op].rate = rate
}

// Latency delays every operation of class op by d before it runs.
func (f *Store) Latency(op Op, d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.plans[op].latency = d
}

// TearPuts accepts the next n Puts but persists only half the bytes:
// success is reported, reads still see the intact value, and the
// corruption surfaces after Crash — the torn-on-reopen scenario.
func (f *Store) TearPuts(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.tearN = n
}

// Recover clears every failure mode (fail-N counters, rates, latency,
// pending tears). Torn values already written stay torn.
func (f *Store) Recover() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := range f.plans {
		f.plans[i] = opPlan{}
	}
	f.tearN = 0
}

// Crash simulates process death after torn writes: the intact shadow
// copies are discarded, so subsequent reads see what actually reached
// the inner store — the truncated bytes.
func (f *Store) Crash() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.shadow = map[string][]byte{}
}

// Stats reports attempts and injected failures for one op class.
func (f *Store) Stats(op Op) OpStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats[op]
}

// TornWrites reports how many Puts have been torn so far.
func (f *Store) TornWrites() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.torn
}

// Configure applies a scenario in the compact text syntax (see the
// package comment): "put:fail=3;get:rate=0.25;put:latency=5ms". An
// error leaves the script untouched.
func (f *Store) Configure(scenario string) error {
	type apply func(*Store)
	var pending []apply
	for _, clause := range strings.Split(scenario, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		opName, directive, ok := strings.Cut(clause, ":")
		if !ok {
			return fmt.Errorf("faultstore: clause %q: want op:directive=value", clause)
		}
		key, value, ok := strings.Cut(directive, "=")
		if !ok {
			return fmt.Errorf("faultstore: clause %q: want op:directive=value", clause)
		}
		var ops []Op
		switch opName {
		case "get":
			ops = []Op{OpGet}
		case "put":
			ops = []Op{OpPut}
		case "delete":
			ops = []Op{OpDelete}
		case "scan":
			ops = []Op{OpScan}
		case "*":
			ops = []Op{OpGet, OpPut, OpDelete, OpScan}
		default:
			return fmt.Errorf("faultstore: clause %q: unknown op %q (want get, put, delete, scan or *)", clause, opName)
		}
		switch key {
		case "fail":
			n, err := strconv.Atoi(value)
			if err != nil || n < 0 {
				return fmt.Errorf("faultstore: clause %q: fail wants a non-negative integer", clause)
			}
			for _, op := range ops {
				op := op
				pending = append(pending, func(s *Store) { s.plans[op].failN = n })
			}
		case "rate":
			r, err := strconv.ParseFloat(value, 64)
			if err != nil || r < 0 || r > 1 {
				return fmt.Errorf("faultstore: clause %q: rate wants a float in [0,1]", clause)
			}
			for _, op := range ops {
				op := op
				pending = append(pending, func(s *Store) { s.plans[op].rate = r })
			}
		case "latency":
			d, err := time.ParseDuration(value)
			if err != nil || d < 0 {
				return fmt.Errorf("faultstore: clause %q: latency wants a Go duration", clause)
			}
			for _, op := range ops {
				op := op
				pending = append(pending, func(s *Store) { s.plans[op].latency = d })
			}
		case "tear":
			if opName != "put" {
				return fmt.Errorf("faultstore: clause %q: tear applies to put only", clause)
			}
			n, err := strconv.Atoi(value)
			if err != nil || n < 0 {
				return fmt.Errorf("faultstore: clause %q: tear wants a non-negative integer", clause)
			}
			pending = append(pending, func(s *Store) { s.tearN = n })
		default:
			return fmt.Errorf("faultstore: clause %q: unknown directive %q (want fail, rate, latency or tear)", clause, key)
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, p := range pending {
		p(f)
	}
	return nil
}

// before runs the scripted pre-op behavior for one operation: count
// it, sleep its injected latency, and decide whether it fails. The
// latency sleep happens outside the lock so concurrent chaos traffic
// does not serialize on the script mutex.
func (f *Store) before(op Op) error {
	f.mu.Lock()
	f.stats[op].Attempts++
	delay := f.plans[op].latency
	fail := false
	if f.plans[op].failN > 0 {
		f.plans[op].failN--
		fail = true
	} else if r := f.plans[op].rate; r > 0 && f.rng.Float64() < r {
		fail = true
	}
	if fail {
		f.stats[op].Injected++
	}
	f.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if fail {
		return fmt.Errorf("faultstore: %s: %w", op, ErrInjected)
	}
	return nil
}

// Get implements storage.Store. A key with a live shadow copy (a torn
// Put before the crash) answers from the shadow, like a page cache
// serving bytes the disk never got.
func (f *Store) Get(key string) ([]byte, error) {
	if err := f.before(OpGet); err != nil {
		return nil, err
	}
	f.mu.Lock()
	if v, ok := f.shadow[key]; ok {
		out := append([]byte(nil), v...)
		f.mu.Unlock()
		return out, nil
	}
	f.mu.Unlock()
	return f.inner.Get(key)
}

// Put implements storage.Store, honoring the tear script: a torn Put
// persists truncated bytes but reports success and shadows the intact
// value until Crash. A whole Put supersedes the key's shadow, so reads
// answer its value before a crash and after one alike.
func (f *Store) Put(key string, value []byte) error {
	if err := f.before(OpPut); err != nil {
		return err
	}
	f.mu.Lock()
	tear := f.tearN > 0
	if tear {
		f.tearN--
		f.torn++
	}
	f.mu.Unlock()
	if !tear {
		if err := f.inner.Put(key, value); err != nil {
			return err
		}
		f.mu.Lock()
		delete(f.shadow, key)
		f.mu.Unlock()
		return nil
	}
	if err := f.inner.Put(key, value[:len(value)/2]); err != nil {
		return err
	}
	f.mu.Lock()
	f.shadow[key] = append([]byte(nil), value...)
	f.mu.Unlock()
	return nil
}

// Delete implements storage.Store.
func (f *Store) Delete(key string) error {
	if err := f.before(OpDelete); err != nil {
		return err
	}
	f.mu.Lock()
	delete(f.shadow, key)
	f.mu.Unlock()
	return f.inner.Delete(key)
}

// Scan implements storage.Store. Shadowed keys are served intact, the
// same view Get gives before a crash.
func (f *Store) Scan(prefix string, fn func(key string, value []byte) error) error {
	if err := f.before(OpScan); err != nil {
		return err
	}
	f.mu.Lock()
	overlay := make(map[string][]byte, len(f.shadow))
	for k, v := range f.shadow {
		if strings.HasPrefix(k, prefix) {
			overlay[k] = append([]byte(nil), v...)
		}
	}
	f.mu.Unlock()
	if len(overlay) == 0 {
		return f.inner.Scan(prefix, fn)
	}
	return f.inner.Scan(prefix, func(key string, value []byte) error {
		if v, ok := overlay[key]; ok {
			return fn(key, v)
		}
		return fn(key, value)
	})
}

// Generation implements storage.Store; generation stamping is never
// fault-injected (it is the snapshot coordination channel, not the
// data path under test).
func (f *Store) Generation() (uint64, error) { return f.inner.Generation() }

// SetGeneration implements storage.Store.
func (f *Store) SetGeneration(gen uint64) error { return f.inner.SetGeneration(gen) }

// Name identifies the decorator and its inner backend for diagnostics.
func (f *Store) Name() string { return "fault(" + f.inner.Name() + ")" }

// Close closes the inner store.
func (f *Store) Close() error { return f.inner.Close() }
