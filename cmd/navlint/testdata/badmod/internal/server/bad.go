// Package server seeds one deliberate violation per navlint analyzer;
// the driver tests assert every rule fires by name over this module.
package server

import (
	"fmt"
	"net/http"
	"sync"
)

//repro:hotpth
// ^ malformed directive: the directives analyzer must flag the typo.

// Hot violates the hotpath rule: annotated, but formats.
//
//repro:hotpath
func Hot(n int) string {
	return fmt.Sprintf("n=%d", n)
}

// G carries the mutex the locks analyzer watches.
type G struct {
	mu sync.Mutex
	n  int
}

// Leak violates the locks rule: the early return leaves mu held.
func (g *G) Leak(cond bool) int {
	g.mu.Lock()
	if cond {
		return g.n
	}
	g.n++
	g.mu.Unlock()
	return g.n
}

// S is the dispatcher the apihandler analyzer inspects.
type S struct{}

// serveAPI violates the apihandler rule: no Cache-Control: no-store,
// and the handler is dispatched without a method guard.
//
//repro:apimux
func (s *S) serveAPI(w http.ResponseWriter, r *http.Request) {
	s.apiThing(w, r)
}

func (s *S) apiThing(w http.ResponseWriter, r *http.Request) {}
