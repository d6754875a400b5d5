// Package b checks that lock-acquire summaries, and the locks a callee
// holds while it calls a literal, arrive from other packages as facts.
package b

import "lockstest/dep"

func Use(box *dep.Box) int {
	box.Mu.RLock()
	defer box.Mu.RUnlock()
	box.Fill() // want `calling Fill acquires box\.Mu while it is already read-locked at line \d+ \(deadlock\)`
	return box.V
}

func FillInsideWith(box *dep.Box) {
	box.With(func() {
		box.Fill() // want `calling Fill acquires box\.Mu while it is already write-locked at line \d+ \(deadlock\)`
	})
}

func CleanUse(box *dep.Box) int {
	box.Mu.RLock()
	defer box.Mu.RUnlock()
	return box.V
}
