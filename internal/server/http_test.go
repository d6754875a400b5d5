package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"repro/internal/navigation"
	"repro/internal/presentation"
)

// condGet performs a GET with an optional If-None-Match header.
func condGet(t *testing.T, url, inm string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// firstGet fetches path once, checking the validator contract on the
// way: a strong "g<generation>-<hash>" ETag, Cache-Control: no-cache,
// and a 304 revalidation with an empty body.
func firstGet(t *testing.T, url string) (etag string) {
	t.Helper()
	resp := condGet(t, url, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first GET = %d", resp.StatusCode)
	}
	etag = resp.Header.Get("ETag")
	if !strings.HasPrefix(etag, `"g`) || !strings.Contains(etag, "-") {
		t.Fatalf("ETag = %q, want \"g<generation>-<hash>\"", etag)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-cache" {
		t.Errorf("Cache-Control = %q, want no-cache", cc)
	}
	resp = condGet(t, url, etag)
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation = %d, want 304", resp.StatusCode)
	}
	if body, _ := io.ReadAll(resp.Body); len(body) != 0 {
		t.Errorf("304 carried a body: %q", body)
	}
	if got := resp.Header.Get("ETag"); got != etag {
		t.Errorf("304 ETag = %q, want %q", got, etag)
	}
	return etag
}

// TestConditionalGetPages is the acceptance scenario for the validator:
// a second GET with If-None-Match of the returned ETag yields 304, a
// mutation the content depends on yields 200 with a new tag — and a
// mutation it does NOT depend on keeps the old tag validating, because
// invalidation is dependency-aware.
func TestConditionalGetPages(t *testing.T) {
	t.Run("page depends on the stylesheet slot", func(t *testing.T) {
		srv, ts := testServer(t)
		etag := firstGet(t, ts.URL+"/ByAuthor/picasso/guitar.html")
		// Toggling the stylesheet re-weaves member pages; even though
		// the woven bytes end up identical, the generation moved.
		srv.app.SetStylesheet(&presentation.Stylesheet{})
		srv.app.SetStylesheet(nil) // restore built-in presentation
		resp := condGet(t, ts.URL+"/ByAuthor/picasso/guitar.html", etag)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET after SetStylesheet = %d, want 200", resp.StatusCode)
		}
		if got := resp.Header.Get("ETag"); got == etag || got == "" {
			t.Errorf("ETag after mutation = %q, want a new tag (old %q)", got, etag)
		}
	})

	t.Run("linkbase ignores the stylesheet, tracks the structure", func(t *testing.T) {
		srv, ts := testServer(t)
		etag := firstGet(t, ts.URL+"/links.xml")
		// The stylesheet is presentation; links.xml is navigation. The
		// validator must survive the unrelated mutation.
		srv.app.SetStylesheet(&presentation.Stylesheet{})
		srv.app.SetStylesheet(nil)
		resp := condGet(t, ts.URL+"/links.xml", etag)
		if resp.StatusCode != http.StatusNotModified {
			t.Fatalf("GET after SetStylesheet = %d, want 304 (linkbase unchanged)", resp.StatusCode)
		}
		// An access-structure swap rewrites the linkbase: new tag.
		if err := srv.app.SetAccessStructure("ByAuthor", navigation.Index{}); err != nil {
			t.Fatal(err)
		}
		resp = condGet(t, ts.URL+"/links.xml", etag)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET after SetAccessStructure = %d, want 200", resp.StatusCode)
		}
		if got := resp.Header.Get("ETag"); got == etag || got == "" {
			t.Errorf("ETag after access swap = %q, want a new tag (old %q)", got, etag)
		}
	})

	t.Run("data document tracks only its own content", func(t *testing.T) {
		srv, ts := testServer(t)
		etag := firstGet(t, ts.URL+"/data/guitar.xml")
		// Neither presentation nor navigation mutations touch the data
		// document: the validator keeps validating through both.
		srv.app.SetStylesheet(&presentation.Stylesheet{})
		srv.app.SetStylesheet(nil)
		if err := srv.app.SetAccessStructure("ByAuthor", navigation.Index{}); err != nil {
			t.Fatal(err)
		}
		resp := condGet(t, ts.URL+"/data/guitar.xml", etag)
		if resp.StatusCode != http.StatusNotModified {
			t.Fatalf("GET after unrelated mutations = %d, want 304 (document unchanged)", resp.StatusCode)
		}
		// A content edit to the document itself produces a new tag.
		if _, err := srv.app.EditDocument("guitar", map[string]string{"technique": "Sheet metal and wire"}); err != nil {
			t.Fatal(err)
		}
		resp = condGet(t, ts.URL+"/data/guitar.xml", etag)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET after content edit = %d, want 200", resp.StatusCode)
		}
		if got := resp.Header.Get("ETag"); got == etag || got == "" {
			t.Errorf("ETag after content edit = %q, want a new tag (old %q)", got, etag)
		}
	})
}

// TestConditionalGetStillMovesSession: revalidating a page is still a
// visit — the trail grows even when the response is 304.
func TestConditionalGetStillMovesSession(t *testing.T) {
	_, ts := testServer(t)
	resp := condGet(t, ts.URL+"/ByAuthor/picasso/guitar.html", "")
	etag := resp.Header.Get("ETag")
	cookie := ""
	for _, c := range resp.Cookies() {
		if c.Name == sessionCookie {
			cookie = c.Value
		}
	}
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/ByAuthor/picasso/guitar.html", nil)
	req.Header.Set("If-None-Match", etag)
	req.AddCookie(&http.Cookie{Name: sessionCookie, Value: cookie})
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation = %d", resp2.StatusCode)
	}
	code, body, _ := doGet(t, ts, "/session", cookie)
	if code != http.StatusOK {
		t.Fatal(code)
	}
	var visits []navigation.Visit
	if err := json.Unmarshal([]byte(body), &visits); err != nil {
		t.Fatal(err)
	}
	if len(visits) != 2 {
		t.Errorf("visits after 304 = %d, want 2 (revalidation still counts)", len(visits))
	}
}

func TestETagMatching(t *testing.T) {
	cases := []struct {
		inm, etag string
		want      bool
	}{
		{`"g1-abc"`, `"g1-abc"`, true},
		{`"g1-abc"`, `"g2-abc"`, false},
		{`*`, `"g1-abc"`, true},
		{`"x", "g1-abc"`, `"g1-abc"`, true},
		{`W/"g1-abc"`, `"g1-abc"`, true},
		{`"g1-abc`, `"g1-abc"`, false},
	}
	for _, c := range cases {
		if got := etagMatches(c.inm, c.etag); got != c.want {
			t.Errorf("etagMatches(%q, %q) = %v, want %v", c.inm, c.etag, got, c.want)
		}
	}
}

// TestHeadRequests: HEAD must return the same headers as GET — status,
// content type, ETag, Content-Length — with an empty body.
func TestHeadRequests(t *testing.T) {
	_, ts := testServer(t)
	for _, path := range []string{"/", "/ByAuthor/picasso/guitar.html", "/links.xml", "/session", "/healthz"} {
		t.Run(path, func(t *testing.T) {
			getResp := condGet(t, ts.URL+path, "")
			getBody, _ := io.ReadAll(getResp.Body)

			headResp, err := http.DefaultClient.Head(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			defer headResp.Body.Close()
			if headResp.StatusCode != getResp.StatusCode {
				t.Errorf("HEAD status = %d, GET = %d", headResp.StatusCode, getResp.StatusCode)
			}
			if body, _ := io.ReadAll(headResp.Body); len(body) != 0 {
				t.Errorf("HEAD carried a body: %q", body)
			}
			if got, want := headResp.Header.Get("Content-Type"), getResp.Header.Get("Content-Type"); got != want {
				t.Errorf("HEAD Content-Type = %q, GET = %q", got, want)
			}
			if got, want := headResp.Header.Get("ETag"), getResp.Header.Get("ETag"); got != want {
				t.Errorf("HEAD ETag = %q, GET = %q", got, want)
			}
			// /healthz carries live vitals (uptime, heap) whose rendered
			// width drifts a few bytes between two requests; its HEAD
			// Content-Length is counted from HEAD's own suppressed body,
			// so compare with tolerance there and exactly elsewhere.
			tolerance := 0
			if path == "/healthz" {
				tolerance = 16
			}
			if cl := headResp.Header.Get("Content-Length"); cl != "" {
				n, err := strconv.Atoi(cl)
				if err != nil || n < len(getBody)-tolerance || n > len(getBody)+tolerance {
					t.Errorf("HEAD Content-Length = %s, GET body = %d bytes", cl, len(getBody))
				}
			}
		})
	}
}

// TestHeadConditional: HEAD with a matching If-None-Match revalidates to
// 304 just like GET.
func TestHeadConditional(t *testing.T) {
	_, ts := testServer(t)
	etag := condGet(t, ts.URL+"/links.xml", "").Header.Get("ETag")
	req, _ := http.NewRequest(http.MethodHead, ts.URL+"/links.xml", nil)
	req.Header.Set("If-None-Match", etag)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Errorf("conditional HEAD = %d, want 304", resp.StatusCode)
	}
}

// TestPerRequestEndpointsNoStore: responses derived from per-requester
// or live operational state must tell intermediaries not to cache them.
// /session in particular is keyed by the requester's cookie — a shared
// cache replaying it to another visitor would leak their trail.
func TestPerRequestEndpointsNoStore(t *testing.T) {
	_, ts := testServer(t)
	for _, path := range []string{"/session", "/healthz", "/arcs?node=guitar"} {
		resp := condGet(t, ts.URL+path, "")
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
		if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
			t.Errorf("%s Cache-Control = %q, want no-store", path, cc)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Post(ts.URL+"/", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST = %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != "GET, HEAD" {
		t.Errorf("Allow = %q, want \"GET, HEAD\"", allow)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := testServer(t)
	// Create one session and warm one cached page first.
	doGet(t, ts, "/ByAuthor/picasso/guitar.html", "")
	code, body, _ := doGet(t, ts, "/healthz", "")
	if code != http.StatusOK {
		t.Fatalf("/healthz = %d", code)
	}
	var health struct {
		Status          string `json:"status"`
		Sessions        int    `json:"sessions"`
		CacheGeneration uint64 `json:"cache_generation"`
		CachedPages     int    `json:"cached_pages"`
		Store           string `json:"store"`
	}
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatalf("unmarshalling %q: %v", body, err)
	}
	if health.Status != "ok" {
		t.Errorf("status = %q", health.Status)
	}
	if health.Sessions != 1 {
		t.Errorf("sessions = %d, want 1", health.Sessions)
	}
	if health.CachedPages != 1 {
		t.Errorf("cached_pages = %d, want 1", health.CachedPages)
	}
	if health.Store != "none" {
		t.Errorf("store = %q, want none (no persistence configured)", health.Store)
	}
}

func TestHealthzReportsBackend(t *testing.T) {
	for _, tc := range []struct {
		name string
	}{{"mem"}, {"file"}} {
		t.Run(tc.name, func(t *testing.T) {
			st := newTestStore(t, tc.name)
			_, ts := persistentServer(t, st)
			_, body, _ := doGet(t, ts, "/healthz", "")
			if !strings.Contains(body, `"store":"`+tc.name+`"`) {
				t.Errorf("healthz = %s, want store %q", body, tc.name)
			}
		})
	}
}

// splitPagePathCases are the path-grammar edge cases, which
// FuzzSplitPagePath also starts from.
var splitPagePathCases = []struct {
	path        string
	wantContext string
	wantNode    string
	wantErr     bool
}{
	{"ByAuthor/picasso/guitar.html", "ByAuthor:picasso", "guitar", false},
	{"ByAuthor/picasso/index.html", "ByAuthor:picasso", navigation.HubID, false},
	{"AllPaintings/guitar.html", "AllPaintings", "guitar", false},
	// Nested group paths: every directory joins the context name.
	{"Family/group/sub/node.html", "Family:group:sub", "node", false},
	{"Family/group/sub/index.html", "Family:group:sub", navigation.HubID, false},
	// Bare index.html has no context directory.
	{"index.html", "", "", true},
	// A single-segment page likewise.
	{"guitar.html", "", "", true},
	// Empty segments: doubled, leading and trailing slashes.
	{"ByAuthor//guitar.html", "", "", true},
	{"/ByAuthor/guitar.html", "", "", true},
	{"ByAuthor/picasso/.html", "", "", true},
	{"ByAuthor/guitar.html/", "", "", true},
	{"", "", "", true},
}

// TestSplitPagePath covers the path-grammar edge cases.
func TestSplitPagePath(t *testing.T) {
	for _, c := range splitPagePathCases {
		ctx, node, err := splitPagePath(c.path)
		if c.wantErr {
			if err == nil {
				t.Errorf("splitPagePath(%q) = (%q, %q), want error", c.path, ctx, node)
			}
			continue
		}
		if err != nil {
			t.Errorf("splitPagePath(%q): %v", c.path, err)
			continue
		}
		if ctx != c.wantContext || node != c.wantNode {
			t.Errorf("splitPagePath(%q) = (%q, %q), want (%q, %q)",
				c.path, ctx, node, c.wantContext, c.wantNode)
		}
	}
}

// TestTrailingSlashAndEmptySegment404 drives the edge cases end to end.
func TestTrailingSlashAndEmptySegment404(t *testing.T) {
	_, ts := testServer(t)
	for _, path := range []string{
		"/ByAuthor/picasso/guitar.html/",
		"/ByAuthor//guitar.html",
		"/index.html",
	} {
		code, _, _ := doGet(t, ts, path, "")
		if code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, code)
		}
	}
}
