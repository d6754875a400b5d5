package server

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/museum"
	"repro/internal/navigation"
)

// TestSiteMapReadsOneModel: the site map is rendered from one resolved
// model while a content writer makes a grouped, filtered context appear
// and vanish. Reading the model once per listed context would meet a
// context the next rebuild dropped, and fail the request.
func TestSiteMapReadsOneModel(t *testing.T) {
	m := museum.Model(navigation.IndexedGuidedTour{})
	m.MustAddContext(&navigation.ContextDef{
		Name: "Modern", NodeClass: "PaintingNode", GroupBy: "paints",
		Where: "year >= 1930", Access: navigation.Index{}, Show: "embed",
	})
	app, err := core.NewApp(museum.PaperStore(), m)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(app))
	t.Cleanup(ts.Close)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		// Dali's only painting moves in and out of the Modern filter, so
		// Modern:dali appears and vanishes with every edit.
		for i := 0; i < 200; i++ {
			year := 1920 + 11*(i%2)
			if err := app.Store().SetAttrs("memory", map[string]string{"year": strconv.Itoa(year)}); err != nil {
				t.Error(err)
				return
			}
			if _, err := app.InvalidateDocument("memory.xml"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for reader := 0; reader < 2; reader++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := ts.Client().Get(ts.URL + "/")
				if err != nil {
					t.Errorf("GET /: %v", err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET / = %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()
}
