// Package a is the negative corpus: every annotation used correctly,
// every idiom the analyzers must tolerate. All five analyzers run over
// it and must stay silent.
package a

import (
	"net/http"
	"sync"
)

type App struct {
	mu sync.RWMutex
	n  int
}

// Read is the hot read path: read lock, no formatting, no clock, no
// allocation.
//
//repro:hotpath
func (a *App) Read() int {
	a.mu.RLock()
	n := a.n
	a.mu.RUnlock()
	return n
}

// Write is the mutation plane: write lock under defer.
func (a *App) Write(v int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.n = v
}

// ReadInto takes the branchy unlock path: explicit per-branch release.
func (a *App) ReadInto(out *int) bool {
	a.mu.RLock()
	if out == nil {
		a.mu.RUnlock()
		return false
	}
	*out = a.n
	a.mu.RUnlock()
	return true
}

type S struct {
	app *App
}

func allowMethods(w http.ResponseWriter, method string, allowed ...string) bool {
	for _, m := range allowed {
		if method == m {
			return true
		}
	}
	w.WriteHeader(http.StatusMethodNotAllowed)
	return false
}

//repro:apimux
func (s *S) ServeAPI(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Cache-Control", "no-store")
	switch r.URL.Path {
	case "/read":
		if allowMethods(w, r.Method, http.MethodGet) {
			s.apiRead(w)
		}
	case "/write":
		switch r.Method {
		case http.MethodPut:
			s.apiWrite(w, r)
		default:
			allowMethods(w, r.Method, http.MethodPut)
		}
	}
}

// apiWrite is a control-plane handler.
func (s *S) apiWrite(w http.ResponseWriter, r *http.Request) {
	s.app.Write(1)
	w.WriteHeader(http.StatusOK)
}

func (s *S) apiRead(w http.ResponseWriter) {
	_ = s.app.Read()
	w.WriteHeader(http.StatusOK)
}

//repro:nostore
func (s *S) serveHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
}
