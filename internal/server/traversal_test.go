package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// noRedirectClient returns a cookie-jarred client that surfaces redirects
// instead of following them, so tests can assert Location headers.
func noRedirectClient() *http.Client {
	return &http.Client{
		Jar: newCookieJar(),
		CheckRedirect: func(*http.Request, []*http.Request) error {
			return http.ErrUseLastResponse
		},
	}
}

func getRaw(t *testing.T, client *http.Client, url string) *http.Response {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// TestTraversalNextFollowsContext drives /go/next and checks the redirect
// target depends on the entry context — §2 over HTTP.
func TestTraversalNextFollowsContext(t *testing.T) {
	_, ts := testServer(t)

	// Visitor A reaches guitar via the author.
	alice := noRedirectClient()
	getRaw(t, alice, ts.URL+"/ByAuthor/picasso/guitar.html")
	resp := getRaw(t, alice, ts.URL+"/go/next")
	if resp.StatusCode != http.StatusSeeOther {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/ByAuthor/picasso/guernica.html" {
		t.Errorf("author Next -> %s, want guernica", loc)
	}

	// Visitor B reaches guitar via the movement (title order in cubism:
	// Guitar, Les Demoiselles d'Avignon) — Next differs.
	bob := noRedirectClient()
	getRaw(t, bob, ts.URL+"/ByMovement/cubism/guitar.html")
	resp = getRaw(t, bob, ts.URL+"/go/next")
	if loc := resp.Header.Get("Location"); loc != "/ByMovement/cubism/avignon.html" {
		t.Errorf("movement Next -> %s, want avignon", loc)
	}
}

func TestTraversalUpAndSelect(t *testing.T) {
	_, ts := testServer(t)
	client := noRedirectClient()
	getRaw(t, client, ts.URL+"/ByAuthor/picasso/guitar.html")

	resp := getRaw(t, client, ts.URL+"/go/up")
	if loc := resp.Header.Get("Location"); loc != "/ByAuthor/picasso/index.html" {
		t.Errorf("up -> %s", loc)
	}
	// Actually visit the hub (the redirect target), then select.
	getRaw(t, client, ts.URL+"/ByAuthor/picasso/index.html")
	resp = getRaw(t, client, ts.URL+"/go/select?node=guernica")
	if loc := resp.Header.Get("Location"); loc != "/ByAuthor/picasso/guernica.html" {
		t.Errorf("select -> %s", loc)
	}
}

func TestTraversalSwitchContext(t *testing.T) {
	_, ts := testServer(t)
	client := noRedirectClient()
	getRaw(t, client, ts.URL+"/ByAuthor/picasso/guernica.html")
	resp := getRaw(t, client, ts.URL+"/go/switch?context=ByMovement:surrealism")
	if loc := resp.Header.Get("Location"); loc != "/ByMovement/surrealism/guernica.html" {
		t.Errorf("switch -> %s", loc)
	}
	// Now in surrealism; visit the target, then Next leads to memory.
	getRaw(t, client, ts.URL+"/ByMovement/surrealism/guernica.html")
	resp = getRaw(t, client, ts.URL+"/go/next")
	if loc := resp.Header.Get("Location"); loc != "/ByMovement/surrealism/memory.html" {
		t.Errorf("post-switch Next -> %s", loc)
	}
}

func TestTraversalErrors(t *testing.T) {
	_, ts := testServer(t)

	// Without a current context, traversal conflicts.
	fresh := noRedirectClient()
	if resp := getRaw(t, fresh, ts.URL+"/go/next"); resp.StatusCode != http.StatusConflict {
		t.Errorf("next without context = %d, want 409", resp.StatusCode)
	}

	client := noRedirectClient()
	getRaw(t, client, ts.URL+"/ByAuthor/picasso/guernica.html") // end of tour
	if resp := getRaw(t, client, ts.URL+"/go/next"); resp.StatusCode != http.StatusConflict {
		t.Errorf("next at tour end = %d, want 409", resp.StatusCode)
	}
	if resp := getRaw(t, client, ts.URL+"/go/teleport"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown action = %d, want 404", resp.StatusCode)
	}
	if resp := getRaw(t, client, ts.URL+"/go/select"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("select without node = %d, want 400", resp.StatusCode)
	}
	if resp := getRaw(t, client, ts.URL+"/go/switch"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("switch without context = %d, want 400", resp.StatusCode)
	}
	// Switching to a context that does not contain the node conflicts.
	if resp := getRaw(t, client, ts.URL+"/go/switch?context=ByMovement:cubism"); resp.StatusCode != http.StatusConflict {
		t.Errorf("invalid switch = %d, want 409", resp.StatusCode)
	}
}

// TestTraversalWithoutSessionStartsNone: a cookie-less traversal, GET
// or HEAD, is refused with 409, sets no cookie and leaves no session in
// the table.
func TestTraversalWithoutSessionStartsNone(t *testing.T) {
	srv, _ := testServer(t)
	for _, method := range []string{http.MethodGet, http.MethodHead} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(method, "/go/next", nil))
		if rec.Code != http.StatusConflict {
			t.Errorf("%s /go/next without a session = %d, want 409", method, rec.Code)
		}
		if c := rec.Header().Values("Set-Cookie"); len(c) > 0 {
			t.Errorf("%s /go/next without a session set cookies %q", method, c)
		}
	}
	if n := srv.SessionCount(); n != 0 {
		t.Errorf("SessionCount = %d after cookie-less traversals, want 0", n)
	}
}

// TestTraversalBackForward drives /go/back and /go/forward: Back
// retraces the walk, Forward undoes the Back, and both bottom out with
// 409 at the ends of the history.
func TestTraversalBackForward(t *testing.T) {
	_, ts := testServer(t)
	client := noRedirectClient()
	getRaw(t, client, ts.URL+"/ByAuthor/picasso/avignon.html")
	getRaw(t, client, ts.URL+"/ByAuthor/picasso/guitar.html")
	getRaw(t, client, ts.URL+"/ByAuthor/picasso/guernica.html")

	resp := getRaw(t, client, ts.URL+"/go/back")
	if resp.StatusCode != http.StatusSeeOther {
		t.Fatalf("back status = %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/ByAuthor/picasso/guitar.html" {
		t.Errorf("back -> %s, want guitar", loc)
	}
	// Loading the redirect target is a reload at the cursor — the
	// forward history must survive it.
	getRaw(t, client, ts.URL+"/ByAuthor/picasso/guitar.html")
	resp = getRaw(t, client, ts.URL+"/go/back")
	if loc := resp.Header.Get("Location"); loc != "/ByAuthor/picasso/avignon.html" {
		t.Errorf("second back -> %s, want avignon", loc)
	}
	getRaw(t, client, ts.URL+"/ByAuthor/picasso/avignon.html")
	// At the start of the history a further Back conflicts.
	if resp := getRaw(t, client, ts.URL+"/go/back"); resp.StatusCode != http.StatusConflict {
		t.Errorf("back at history start = %d, want 409", resp.StatusCode)
	}
	// Forward retraces toward the tip.
	resp = getRaw(t, client, ts.URL+"/go/forward")
	if loc := resp.Header.Get("Location"); loc != "/ByAuthor/picasso/guitar.html" {
		t.Errorf("forward -> %s, want guitar", loc)
	}
	resp = getRaw(t, client, ts.URL+"/go/forward")
	if loc := resp.Header.Get("Location"); loc != "/ByAuthor/picasso/guernica.html" {
		t.Errorf("second forward -> %s, want guernica", loc)
	}
	if resp := getRaw(t, client, ts.URL+"/go/forward"); resp.StatusCode != http.StatusConflict {
		t.Errorf("forward at history tip = %d, want 409", resp.StatusCode)
	}
}

// TestTraversalNextFromMidHistory is the regression test for relative
// traversals on a session that went Back: /go/next must continue from
// the current history position, not from the trail tip.
func TestTraversalNextFromMidHistory(t *testing.T) {
	_, ts := testServer(t)
	client := noRedirectClient()
	getRaw(t, client, ts.URL+"/ByAuthor/picasso/avignon.html") // A
	getRaw(t, client, ts.URL+"/ByAuthor/picasso/guitar.html")  // B = next of A
	if resp := getRaw(t, client, ts.URL+"/go/back"); resp.StatusCode != http.StatusSeeOther {
		t.Fatalf("back = %d", resp.StatusCode)
	}
	// Mid-history at A: Next is B again — not C (the next of the trail
	// tip B, which a tip-relative traversal would produce).
	resp := getRaw(t, client, ts.URL+"/go/next")
	if resp.StatusCode != http.StatusSeeOther {
		t.Fatalf("next from mid-history = %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/ByAuthor/picasso/guitar.html" {
		t.Errorf("next from mid-history -> %s, want guitar (B)", loc)
	}
	// The navigation truncated the forward history.
	if resp := getRaw(t, client, ts.URL+"/go/forward"); resp.StatusCode != http.StatusConflict {
		t.Errorf("forward after truncating navigate = %d, want 409", resp.StatusCode)
	}
}

// TestHistoryEndpoint checks GET /history: the back/forward list with
// cursor, distinct from the /session trail, never cacheable.
func TestHistoryEndpoint(t *testing.T) {
	_, ts := testServer(t)
	client := noRedirectClient()
	getRaw(t, client, ts.URL+"/ByAuthor/picasso/avignon.html")
	getRaw(t, client, ts.URL+"/ByAuthor/picasso/guitar.html")
	getRaw(t, client, ts.URL+"/go/back")

	resp, err := client.Get(ts.URL + "/history")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Errorf("Cache-Control = %q, want no-store", cc)
	}
	var h struct {
		Entries []struct {
			Context string `json:"Context"`
			NodeID  string `json:"NodeID"`
		} `json:"entries"`
		Cursor     int  `json:"cursor"`
		CanBack    bool `json:"can_back"`
		CanForward bool `json:"can_forward"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if len(h.Entries) != 2 || h.Cursor != 0 {
		t.Fatalf("history = %+v", h)
	}
	if h.Entries[0].NodeID != "avignon" || h.Entries[1].NodeID != "guitar" {
		t.Errorf("entries = %+v", h.Entries)
	}
	if h.CanBack || !h.CanForward {
		t.Errorf("can_back=%v can_forward=%v, want false/true", h.CanBack, h.CanForward)
	}
}

// TestTraversalRedirectChainWalk follows a whole tour via redirects.
func TestTraversalRedirectChainWalk(t *testing.T) {
	_, ts := testServer(t)
	client := &http.Client{Jar: newCookieJar()} // follows redirects
	// Start at the first painting of the author tour.
	if code, _ := get(t, client, ts.URL+"/ByAuthor/picasso/avignon.html"); code != http.StatusOK {
		t.Fatal("entry failed")
	}
	// Two Next hops land on guernica's page (redirects followed).
	if code, body := get(t, client, ts.URL+"/go/next"); code != http.StatusOK || !strings.Contains(body, "<h1>Guitar</h1>") {
		t.Errorf("first next: %d", code)
	}
	if code, body := get(t, client, ts.URL+"/go/next"); code != http.StatusOK || !strings.Contains(body, "<h1>Guernica</h1>") {
		t.Errorf("second next: %d", code)
	}
}
