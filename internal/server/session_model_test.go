package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/museum"
	"repro/internal/navigation"
)

// TestIdleSessionsPinNoSupersededModel: sessions that go idle on sixteen
// successive models keep none of the superseded models alive. A session
// holds its position as symbols and resolves against the newest model,
// so a model a mutation replaced is garbage once no request holds it.
func TestIdleSessionsPinNoSupersededModel(t *testing.T) {
	srv, ts := testServer(t)
	structures := []navigation.AccessStructure{navigation.Index{}, navigation.IndexedGuidedTour{}}
	const generations = 16
	var freed atomic.Int32
	for g := 0; g < generations; g++ {
		client := &http.Client{Jar: newCookieJar()}
		if code, _ := get(t, client, ts.URL+"/ByMovement/cubism/guitar.html"); code != http.StatusOK {
			t.Fatalf("generation %d: page answered %d", g, code)
		}
		runtime.SetFinalizer(srv.app.Resolved(), func(*navigation.ResolvedModel) { freed.Add(1) })
		if err := srv.app.SetAccessStructure("ByMovement", structures[g%2]); err != nil {
			t.Fatal(err)
		}
	}
	if n := srv.SessionCount(); n != generations {
		t.Fatalf("%d sessions tracked, want %d", n, generations)
	}
	for deadline := time.Now().Add(5 * time.Second); freed.Load() < generations && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if n := freed.Load(); n != generations {
		t.Errorf("%d of %d superseded models were freed while their sessions idled", n, generations)
	}
}

// TestPagesAndTraversalsRaceMembershipEdits: page loads and /go/next
// steps race edits that make a context appear and vanish and move a
// member in and out of another. A page woven from one model whose pair
// the next model lacks is gone, a 404; a step from or to a position the
// newest model lacks is a 409 or a redirect to a page that 404s. No
// request fails with a server error or a dropped connection.
func TestPagesAndTraversalsRaceMembershipEdits(t *testing.T) {
	m := museum.Model(navigation.IndexedGuidedTour{})
	m.MustAddContext(&navigation.ContextDef{
		Name: "Modern", NodeClass: "PaintingNode", GroupBy: "paints",
		Where: "year >= 1910", Access: navigation.IndexedGuidedTour{Circular: true},
	})
	app, err := core.NewApp(museum.PaperStore(), m)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(app))
	t.Cleanup(ts.Close)

	toggles := 400
	if testing.Short() {
		toggles = 100
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		// Dali's only painting leaves and rejoins the Modern filter, so
		// Modern:dali vanishes and reappears; Guitar leaves and rejoins
		// Modern:picasso, which Guernica keeps in the model.
		for i := 0; i < toggles; i++ {
			for id, years := range map[string][2]string{"memory": {"1931", "1905"}, "guitar": {"1913", "1905"}} {
				if err := app.Store().SetAttrs(id, map[string]string{"year": years[i%2]}); err != nil {
					t.Error(err)
					return
				}
				if _, err := app.InvalidateDocument(navigation.NodeHref(id)); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	var mu sync.Mutex
	answered := map[string]int{}
	fetch := func(client *http.Client, path string) bool {
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			t.Errorf("GET %s: %v", path, err)
			return false
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		mu.Lock()
		answered[path+" "+strconv.Itoa(resp.StatusCode)]++
		mu.Unlock()
		if resp.StatusCode >= 500 {
			t.Errorf("GET %s = %d", path, resp.StatusCode)
			return false
		}
		return true
	}
	for _, walk := range [][]string{
		{"/Modern/dali/memory.html"},
		{"/Modern/picasso/guernica.html", "/go/next"},
	} {
		walk := walk
		for reader := 0; reader < 3; reader++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				client := noRedirectClient()
				for {
					select {
					case <-done:
						return
					default:
					}
					for _, path := range walk {
						if !fetch(client, path) {
							return
						}
					}
				}
			}()
		}
	}
	wg.Wait()
	t.Log(answered)
}
