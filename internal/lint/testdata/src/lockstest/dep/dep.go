// Package dep exports a type whose methods lock an exported mutex, so
// the acquire-summary fact, and the fact that With calls its argument
// under the lock, must cross the package boundary.
package dep

import "sync"

type Box struct {
	Mu sync.RWMutex
	V  int
}

func (b *Box) Fill() {
	b.Mu.Lock()
	defer b.Mu.Unlock()
	b.V++
}

// With runs f holding the write lock.
func (b *Box) With(f func()) {
	b.Mu.Lock()
	defer b.Mu.Unlock()
	f()
}
