package server

import (
	"net/http"
	"runtime"
	"strings"
	"testing"

	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/museum"
	"repro/internal/navigation"
)

// TestPagesDoNotPinRequestLines: serving every member page once, each
// with a 64 KiB query string, must not keep those request lines alive.
// The page cache, the cached page and the hop recorder hold names the
// model owns; a name cut out of r.URL.Path would pin the whole line,
// query string included, for as long as the page stays cached.
func TestPagesDoNotPinRequestLines(t *testing.T) {
	app, err := core.NewApp(museum.PaperStore(), museum.Model(navigation.IndexedGuidedTour{}))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(app, WithAnalytics(analytics.NewRecorder(analytics.RecorderConfig{})))
	var paths []string
	for _, rc := range app.Resolved().Contexts {
		for _, m := range rc.Members {
			paths = append(paths, "/"+core.PagePath(rc.Name, m.ID()))
		}
	}
	const queryLen = 64 << 10
	pad := strings.Repeat("q", queryLen)

	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	cookie := ""
	for _, p := range paths {
		// A fresh request line per page, as net/http reads one.
		rec := newRecorder()
		srv.ServeHTTP(rec, newRequest(p+"?pad="+pad, cookie))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d", p, rec.Code)
		}
		if c := rec.cookie(); c != "" {
			cookie = c
		}
	}
	after := heap()
	runtime.KeepAlive(srv)

	if n := app.CachedPages(); n != len(paths) {
		t.Fatalf("cached pages = %d, want %d", n, len(paths))
	}
	if raceEnabled {
		t.Skip("race instrumentation skews heap sizes")
	}
	// The woven pages themselves are a few KiB each; two request lines'
	// worth leaves room for them and none for a pinned line per page.
	retained := int64(after) - int64(before)
	t.Logf("%d pages, %d KiB retained", len(paths), retained>>10)
	if retained > 2*queryLen {
		t.Errorf("serving %d pages retained %d KiB, want under %d KiB: request lines are pinned",
			len(paths), retained>>10, 2*queryLen>>10)
	}
}
