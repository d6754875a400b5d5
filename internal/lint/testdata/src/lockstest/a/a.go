// Package a is the locks analyzer's positive corpus: leaks (in
// functions and in function literals), divergent branches, loop
// imbalance, nested acquisition, wrong-mode release, calls that acquire
// a held lock directly or through the receiver's other methods, and
// the clean idioms that must stay silent.
package a

import "sync"

type App struct {
	mu sync.RWMutex
	n  int
}

// Mutate takes the write lock; its acquire summary makes calling it
// under a held lock a finding.
func (a *App) Mutate() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.n++
}

// Mutate2 delegates: its acquire summary is lockedSet's, reached
// through the call on its own receiver.
func (a *App) Mutate2() { a.lockedSet() }

func (a *App) lockedSet() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.n++
}

func (a *App) ReadThenMutate() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	a.Mutate() // want `calling Mutate acquires a\.mu while it is already read-locked at line \d+ \(deadlock\)`
	return a.n
}

func (a *App) ReadThenMutate2() {
	a.mu.RLock()
	defer a.mu.RUnlock()
	a.Mutate2() // want `calling Mutate2 acquires a\.mu while it is already read-locked at line \d+ \(deadlock\)`
}

func (a *App) Leak(cond bool) {
	a.mu.Lock() // want `a\.mu is locked here but not unlocked on the path leaving the function at line \d+`
	if cond {
		return
	}
	a.mu.Unlock()
}

// ClosureLeak's function literal is checked as a function of its own.
func (a *App) ClosureLeak() func() int {
	return func() int {
		a.mu.Lock() // want `a\.mu is locked here but not unlocked on the path leaving the function at line \d+`
		return a.n
	}
}

func (a *App) Divergent(cond bool) {
	if cond { // want `branches disagree about held locks when control merges`
		a.mu.Lock()
	}
	a.mu.Unlock()
}

func (a *App) LoopImbalance(n int) {
	for i := 0; i < n; i++ { // want `lock state changes across this loop body`
		a.mu.RLock()
	}
}

func (a *App) Nested() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.mu.Lock() // want `a\.mu is acquired here while already held since line \d+ \(deadlock\)`
}

func (a *App) WrongMode() {
	a.mu.RLock()
	a.mu.Unlock() // want `a\.mu was read-locked at line \d+ but released with Unlock`
}

// --- clean idioms below: no diagnostics expected ---

func (a *App) CleanDefer() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.n
}

func (a *App) CleanDeferClosure() {
	a.mu.Lock()
	defer func() {
		a.n++
		a.mu.Unlock()
	}()
}

func (a *App) CleanBranches(cond bool) int {
	a.mu.Lock()
	if cond {
		a.mu.Unlock()
		return 0
	}
	n := a.n
	a.mu.Unlock()
	return n
}

func (a *App) CleanExplicitAcrossBranches(mode int) int {
	a.mu.RLock()
	var n int
	switch mode {
	case 0:
		n = a.n
	default:
		n = -a.n
	}
	a.mu.RUnlock()
	return n
}

func (a *App) CleanLoopBalanced(k int) int {
	total := 0
	for i := 0; i < k; i++ {
		a.mu.RLock()
		total += a.n
		a.mu.RUnlock()
	}
	return total
}

type striped struct {
	shards [4]sync.Mutex
}

// two locks two distinct shards: expression identity keeps them apart.
func (s *striped) two(i, j int) {
	s.shards[i].Lock()
	defer s.shards[i].Unlock()
	s.shards[j].Lock()
	s.shards[j].Unlock()
}

type handoff struct {
	mu sync.Mutex
}

// Acquire intentionally returns holding the lock; the allow documents
// the handoff.
func (h *handoff) Acquire() {
	//repro:allow(lock is handed to the caller, released by Release)
	h.mu.Lock()
}

func (h *handoff) Release() {
	h.mu.Unlock()
}
