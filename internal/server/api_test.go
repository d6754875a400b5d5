package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/analytics"
	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/museum"
	"repro/internal/navigation"
	"repro/internal/storage"
)

const testToken = "test-control-plane-token"

// apiTestServer boots a paper-museum server with the given options.
func apiTestServer(t *testing.T, opts ...Option) (*Server, *httptest.Server) {
	t.Helper()
	app, err := core.NewApp(museum.PaperStore(), museum.Model(navigation.IndexedGuidedTour{}))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(app, opts...)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// apiDo performs one control-plane request with an optional token.
func apiDo(t *testing.T, method, url, token, body string) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// decodeBody decodes a JSON response body into out.
func decodeBody(t *testing.T, resp *http.Response, out any) {
	t.Helper()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
}

// wantAPIError asserts a structured JSON error with the given status.
func wantAPIError(t *testing.T, resp *http.Response, status int) api.Error {
	t.Helper()
	if resp.StatusCode != status {
		t.Fatalf("status = %d, want %d", resp.StatusCode, status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("error Content-Type = %q, want application/json", ct)
	}
	var eb api.ErrorBody
	decodeBody(t, resp, &eb)
	if eb.Error.Status != status || eb.Error.Message == "" {
		t.Errorf("error body = %+v, want status %d with a message", eb.Error, status)
	}
	return eb.Error
}

// TestAPIStructureSwapE2E is the acceptance scenario: a structure swap
// issued through PUT /api/v1/contexts/{family}/structure changes served
// pages and rotates ETags for only the affected context family.
func TestAPIStructureSwapE2E(t *testing.T) {
	_, ts := apiTestServer(t, WithAPIToken(testToken))

	authorTag := firstGet(t, ts.URL+"/ByAuthor/picasso/guitar.html")
	movementTag := firstGet(t, ts.URL+"/ByMovement/cubism/guitar.html")
	hubResp := condGet(t, ts.URL+"/ByAuthor/picasso/index.html", "")
	if hubResp.StatusCode != http.StatusOK {
		t.Fatalf("hub before swap = %d", hubResp.StatusCode)
	}

	// The one-call edit: ByAuthor drops its index pages for a pure
	// guided tour.
	resp := apiDo(t, http.MethodPut, ts.URL+api.BasePath+"/contexts/ByAuthor/structure",
		testToken, `{"kind":"guided-tour"}`)
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("PUT structure = %d: %s", resp.StatusCode, body)
	}
	var res api.MutationResult
	decodeBody(t, resp, &res)
	if res.Family != "ByAuthor" || res.DroppedPages <= 0 {
		t.Errorf("mutation result = %+v, want ByAuthor with dropped pages", res)
	}
	found := false
	for _, name := range res.Contexts {
		if name == "ByAuthor:picasso" {
			found = true
		}
		if strings.HasPrefix(name, "ByMovement") {
			t.Errorf("mutation claims to affect %s", name)
		}
	}
	if !found {
		t.Errorf("mutation contexts = %v, want ByAuthor:picasso listed", res.Contexts)
	}

	// Affected family: new content, new validator.
	after := condGet(t, ts.URL+"/ByAuthor/picasso/guitar.html", authorTag)
	if after.StatusCode != http.StatusOK {
		t.Fatalf("author page after swap = %d, want 200 (new content)", after.StatusCode)
	}
	if got := after.Header.Get("ETag"); got == authorTag || got == "" {
		t.Errorf("author ETag after swap = %q, want a new tag (old %q)", got, authorTag)
	}
	body, _ := io.ReadAll(after.Body)
	if strings.Contains(string(body), `class="nav-up"`) {
		t.Error("guided-tour page still links Up to an index the structure no longer has")
	}
	if !strings.Contains(string(body), `class="nav-next"`) {
		t.Error("guided-tour page lacks the Next link")
	}
	// The family's hub pages are gone with the structure.
	if resp := condGet(t, ts.URL+"/ByAuthor/picasso/index.html", ""); resp.StatusCode != http.StatusNotFound {
		t.Errorf("hub after swap = %d, want 404", resp.StatusCode)
	}

	// Unaffected family: the old validator still validates — the swap's
	// blast radius was exactly one family.
	if resp := condGet(t, ts.URL+"/ByMovement/cubism/guitar.html", movementTag); resp.StatusCode != http.StatusNotModified {
		t.Errorf("ByMovement page after ByAuthor swap = %d, want 304", resp.StatusCode)
	}

	// The control plane reads back the new structure.
	resp = apiDo(t, http.MethodGet, ts.URL+api.BasePath+"/contexts/ByAuthor/structure", testToken, "")
	var st api.Structure
	decodeBody(t, resp, &st)
	if st.Spec == nil || st.Spec.Kind != "guided-tour" || st.Text != "guided-tour" {
		t.Errorf("structure after swap = %+v", st)
	}
}

// TestAPIWriteAuth is the other half of the acceptance criteria:
// unauthenticated requests and requests against a token-less server are
// rejected before anything mutates.
func TestAPIWriteAuth(t *testing.T) {
	t.Run("token-less server rejects everything", func(t *testing.T) {
		srv, ts := apiTestServer(t) // no WithAPIToken
		resp := apiDo(t, http.MethodPut, ts.URL+api.BasePath+"/contexts/ByAuthor/structure",
			"whatever", `{"kind":"menu"}`)
		wantAPIError(t, resp, http.StatusForbidden)
		if resp := apiDo(t, http.MethodGet, ts.URL+api.BasePath+"/model", "", ""); resp.StatusCode != http.StatusForbidden {
			t.Errorf("read on token-less server = %d, want 403", resp.StatusCode)
		}
		if kind := srv.app.Resolved().Context("ByAuthor:picasso").Def.Access.Kind(); kind != "indexed-guided-tour" {
			t.Errorf("structure mutated to %q through a disabled control plane", kind)
		}
	})
	t.Run("missing and wrong tokens are 401", func(t *testing.T) {
		srv, ts := apiTestServer(t, WithAPIToken(testToken))
		for _, tok := range []string{"", "wrong-token"} {
			resp := apiDo(t, http.MethodPut, ts.URL+api.BasePath+"/contexts/ByAuthor/structure",
				tok, `{"kind":"menu"}`)
			wantAPIError(t, resp, http.StatusUnauthorized)
			if resp.Header.Get("WWW-Authenticate") == "" {
				t.Error("401 without WWW-Authenticate")
			}
		}
		if kind := srv.app.Resolved().Context("ByAuthor:picasso").Def.Access.Kind(); kind != "indexed-guided-tour" {
			t.Errorf("structure mutated to %q by an unauthenticated request", kind)
		}
	})
}

// TestAPIValidateThenMutate: a spec that decodes but names garbage, or
// a bad attribute in a document patch batch, changes nothing.
func TestAPIValidateThenMutate(t *testing.T) {
	srv, ts := apiTestServer(t, WithAPIToken(testToken))

	cases := []struct {
		name, method, path, body string
		status                   int
	}{
		{"malformed JSON", http.MethodPut, "/contexts/ByAuthor/structure", `{"kind"`, http.StatusBadRequest},
		{"unknown field", http.MethodPut, "/contexts/ByAuthor/structure", `{"kind":"menu","bogus":1}`, http.StatusBadRequest},
		{"trailing garbage", http.MethodPut, "/contexts/ByAuthor/structure", `{"kind":"menu"}{"kind":"index"}`, http.StatusBadRequest},
		{"trailing patch garbage", http.MethodPatch, "/documents/guitar", `{"set":{"title":"x"}} extra`, http.StatusBadRequest},
		{"invalid spec", http.MethodPut, "/contexts/ByAuthor/structure", `{"kind":"index","circular":true}`, http.StatusBadRequest},
		{"unknown family", http.MethodPut, "/contexts/Nope/structure", `{"kind":"menu"}`, http.StatusNotFound},
		{"unknown instance", http.MethodPatch, "/documents/nope", `{"set":{"title":"x"}}`, http.StatusNotFound},
		{"empty patch", http.MethodPatch, "/documents/guitar", `{"set":{}}`, http.StatusBadRequest},
		{"bad stylesheet", http.MethodPut, "/stylesheet", `<not-a-stylesheet/>`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := apiDo(t, tc.method, ts.URL+api.BasePath+tc.path, testToken, tc.body)
			wantAPIError(t, resp, tc.status)
		})
	}

	// A patch batch with one bad attribute applies neither attribute.
	resp := apiDo(t, http.MethodPatch, ts.URL+api.BasePath+"/documents/guitar",
		testToken, `{"set":{"title":"Guitarra","year":"not-a-number"}}`)
	wantAPIError(t, resp, http.StatusBadRequest)
	if got := srv.app.Store().Get("guitar").Attr("title"); got != "Guitar" {
		t.Errorf("title = %q after rejected batch, want untouched Guitar", got)
	}
	if kind := srv.app.Resolved().Context("ByAuthor:picasso").Def.Access.Kind(); kind != "indexed-guided-tour" {
		t.Errorf("structure = %q after rejected writes, want untouched", kind)
	}
}

// TestAPIDocumentPatch drives a live content edit through the control
// plane: the document's pages rotate, unrelated documents keep
// revalidating.
func TestAPIDocumentPatch(t *testing.T) {
	_, ts := apiTestServer(t, WithAPIToken(testToken))
	guitarTag := firstGet(t, ts.URL+"/data/guitar.xml")
	otherTag := firstGet(t, ts.URL+"/data/memory.xml")

	resp := apiDo(t, http.MethodPatch, ts.URL+api.BasePath+"/documents/guitar",
		testToken, `{"set":{"technique":"Sheet metal and wire"}}`)
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("PATCH = %d: %s", resp.StatusCode, body)
	}
	var res api.MutationResult
	decodeBody(t, resp, &res)
	if res.Document != "guitar.xml" {
		t.Errorf("result document = %q", res.Document)
	}

	after := condGet(t, ts.URL+"/data/guitar.xml", guitarTag)
	if after.StatusCode != http.StatusOK {
		t.Fatalf("edited document = %d, want 200 with new content", after.StatusCode)
	}
	if body, _ := io.ReadAll(after.Body); !strings.Contains(string(body), "Sheet metal and wire") {
		t.Errorf("edited document does not carry the new value:\n%s", body)
	}
	if resp := condGet(t, ts.URL+"/data/memory.xml", otherTag); resp.StatusCode != http.StatusNotModified {
		t.Errorf("unrelated document after edit = %d, want 304", resp.StatusCode)
	}
}

// TestConcurrentPatchesSerialize: two PATCHes of one document sent at
// once apply in some serial order. After each round the store and the
// served document hold all three values of one PATCH, never a mix of
// both.
func TestConcurrentPatchesSerialize(t *testing.T) {
	app, err := core.NewApp(museum.PaperStore(), museum.Model(navigation.IndexedGuidedTour{}))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(app, WithAPIToken(testToken))
	patches := [][3]string{{"T-a", "1901", "K-a"}, {"T-b", "1902", "K-b"}}
	serve := func(method, path, body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		req.Header.Set("Authorization", "Bearer "+testToken)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec
	}
	rounds := 5000
	if testing.Short() {
		rounds = 1000
	}
	torn := 0
	for round := 0; round < rounds; round++ {
		start := make(chan struct{})
		codes := make([]int, len(patches))
		var wg sync.WaitGroup
		for i, p := range patches {
			wg.Add(1)
			go func(i int, p [3]string) {
				defer wg.Done()
				body := fmt.Sprintf(`{"set":{"title":%q,"year":%q,"technique":%q}}`, p[0], p[1], p[2])
				<-start
				codes[i] = serve(http.MethodPatch, api.BasePath+"/documents/guitar", body).Code
			}(i, p)
		}
		close(start)
		wg.Wait()
		for i, code := range codes {
			if code != http.StatusOK {
				t.Fatalf("round %d: PATCH %v = %d, want 200", round, patches[i], code)
			}
		}
		guitar := srv.app.Store().Get("guitar")
		stored := [3]string{guitar.Attr("title"), guitar.Attr("year"), guitar.Attr("technique")}
		whole := slices.Contains(patches, stored)
		doc := serve(http.MethodGet, "/data/guitar.xml", "").Body.String()
		for i, name := range []string{"title", "year", "technique"} {
			whole = whole && strings.Contains(doc, "<"+name+">"+stored[i]+"</"+name+">")
		}
		if !whole {
			torn++
		}
	}
	if torn > 0 {
		t.Errorf("%d of %d rounds left guitar torn between two PATCHes", torn, rounds)
	}
}

// TestAPIStylesheetRoundTrip: PUT serves back byte-identical XML on
// GET, DELETE restores the built-in presentation.
func TestAPIStylesheetRoundTrip(t *testing.T) {
	_, ts := apiTestServer(t, WithAPIToken(testToken))
	src := `<s:stylesheet xmlns:s="urn:repro:style">
  <s:template match="Painting">
    <html><body><h1><s:value-of select="title"/></h1></body></html>
  </s:template>
</s:stylesheet>`

	if resp := apiDo(t, http.MethodGet, ts.URL+api.BasePath+"/stylesheet", testToken, ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET before any PUT = %d, want 404 (built-in presentation)", resp.StatusCode)
	}
	pageTag := firstGet(t, ts.URL+"/ByAuthor/picasso/guitar.html")

	resp := apiDo(t, http.MethodPut, ts.URL+api.BasePath+"/stylesheet", testToken, src)
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("PUT stylesheet = %d: %s", resp.StatusCode, body)
	}
	resp = apiDo(t, http.MethodGet, ts.URL+api.BasePath+"/stylesheet", testToken, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET after PUT = %d", resp.StatusCode)
	}
	if body, _ := io.ReadAll(resp.Body); string(body) != src {
		t.Errorf("stylesheet round trip lost bytes:\n%s", body)
	}
	// Member pages re-weave through the new stylesheet.
	if resp := condGet(t, ts.URL+"/ByAuthor/picasso/guitar.html", pageTag); resp.StatusCode != http.StatusOK {
		t.Errorf("page after stylesheet PUT = %d, want 200", resp.StatusCode)
	}

	if resp := apiDo(t, http.MethodDelete, ts.URL+api.BasePath+"/stylesheet", testToken, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %d", resp.StatusCode)
	}
	if resp := apiDo(t, http.MethodGet, ts.URL+api.BasePath+"/stylesheet", testToken, ""); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET after DELETE = %d, want 404", resp.StatusCode)
	}
}

// TestAPIMethodAwareness: API resources answer disallowed methods with
// 405 and a per-resource Allow header; serving routes do the same with
// their GET/HEAD surface — the two route classes disagree about
// methods, correctly.
func TestAPIMethodAwareness(t *testing.T) {
	_, ts := apiTestServer(t, WithAPIToken(testToken))
	cases := []struct {
		method, path, allow string
	}{
		{http.MethodPut, api.BasePath + "/model", "GET, HEAD"},
		{http.MethodDelete, api.BasePath + "/contexts", "GET, HEAD"},
		{http.MethodPost, api.BasePath + "/contexts/ByAuthor/structure", "GET, HEAD, PUT"},
		{http.MethodGet, api.BasePath + "/snapshot", "POST"},
		{http.MethodGet, api.BasePath + "/adapt", "POST"},
		{http.MethodPost, api.BasePath + "/stylesheet", "GET, HEAD, PUT, DELETE"},
		{http.MethodPut, api.BasePath + "/documents/guitar", "PATCH"},
	}
	for _, tc := range cases {
		resp := apiDo(t, tc.method, ts.URL+tc.path, testToken, "")
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s = %d, want 405", tc.method, tc.path, resp.StatusCode)
			continue
		}
		if got := resp.Header.Get("Allow"); got != tc.allow {
			t.Errorf("%s %s Allow = %q, want %q", tc.method, tc.path, got, tc.allow)
		}
	}
	// A serving route still refuses non-GET/HEAD with its own Allow.
	resp := apiDo(t, http.MethodPut, ts.URL+"/ByAuthor/picasso/guitar.html", "", "x")
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "GET, HEAD" {
		t.Errorf("serving route PUT = %d Allow=%q, want 405 with GET, HEAD",
			resp.StatusCode, resp.Header.Get("Allow"))
	}
	// HEAD rides GET on API resources.
	resp = apiDo(t, http.MethodHead, ts.URL+api.BasePath+"/model", testToken, "")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("HEAD model = %d, want 200", resp.StatusCode)
	}
	if body, _ := io.ReadAll(resp.Body); len(body) != 0 {
		t.Errorf("HEAD carried a body")
	}
}

// TestAPINoStore: operational endpoints must never be cached by
// intermediaries.
func TestAPINoStore(t *testing.T) {
	srv, ts := apiTestServer(t, WithAPIToken(testToken),
		WithAnalytics(analytics.NewRecorder(analytics.RecorderConfig{})))
	_ = srv
	for _, path := range []string{
		"/healthz", "/stats", "/arcs?node=guitar",
		api.BasePath + "/model", api.BasePath + "/contexts",
	} {
		resp := apiDo(t, http.MethodGet, ts.URL+path, testToken, "")
		if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
			t.Errorf("GET %s Cache-Control = %q, want no-store", path, cc)
		}
	}
	// Errors carry it too — a cached 401 would pin a fixed token out.
	resp := apiDo(t, http.MethodGet, ts.URL+api.BasePath+"/model", "", "")
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Errorf("API error Cache-Control = %q, want no-store", cc)
	}
}

// TestAPIModelAndContexts: the read surface exposes the same artifact
// SpecText renders and the resolved-context inventory.
func TestAPIModelAndContexts(t *testing.T) {
	srv, ts := apiTestServer(t, WithAPIToken(testToken))
	resp := apiDo(t, http.MethodGet, ts.URL+api.BasePath+"/model", testToken, "")
	var m api.Model
	decodeBody(t, resp, &m)
	if m.SpecText != srv.app.SpecText() {
		t.Errorf("model spec text differs from the live artifact:\n%s", m.SpecText)
	}
	if !strings.Contains(m.SpecText, "access=indexed-guided-tour") {
		t.Errorf("spec text lacks the access declaration:\n%s", m.SpecText)
	}
	if len(m.Families) != 2 {
		t.Fatalf("families = %d, want 2", len(m.Families))
	}
	for _, fam := range m.Families {
		if fam.Access == nil || fam.Access.Kind != "indexed-guided-tour" {
			t.Errorf("family %s access spec = %+v", fam.Name, fam.Access)
		}
	}

	resp = apiDo(t, http.MethodGet, ts.URL+api.BasePath+"/contexts", testToken, "")
	var contexts []api.Context
	decodeBody(t, resp, &contexts)
	byName := map[string]api.Context{}
	for _, c := range contexts {
		byName[c.Name] = c
	}
	picasso, ok := byName["ByAuthor:picasso"]
	if !ok || picasso.Members != 3 || !picasso.HasHub || picasso.Family != "ByAuthor" {
		t.Errorf("ByAuthor:picasso = %+v", picasso)
	}
}

// TestAPISnapshotAndAdapt: the operational POSTs answer 409 when their
// subsystem is absent and succeed when it is wired.
func TestAPISnapshotAndAdapt(t *testing.T) {
	t.Run("absent subsystems conflict", func(t *testing.T) {
		_, ts := apiTestServer(t, WithAPIToken(testToken))
		wantAPIError(t, apiDo(t, http.MethodPost, ts.URL+api.BasePath+"/snapshot", testToken, ""),
			http.StatusConflict)
		wantAPIError(t, apiDo(t, http.MethodPost, ts.URL+api.BasePath+"/adapt", testToken, ""),
			http.StatusConflict)
	})
	t.Run("wired subsystems respond", func(t *testing.T) {
		store := storage.NewMem()
		rec := analytics.NewRecorder(analytics.RecorderConfig{})
		_, ts := apiTestServer(t, WithAPIToken(testToken),
			WithPersistence(store), WithAnalytics(rec))
		resp := apiDo(t, http.MethodPost, ts.URL+api.BasePath+"/snapshot", testToken, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("snapshot = %d", resp.StatusCode)
		}
		var snap api.SnapshotResult
		decodeBody(t, resp, &snap)
		if snap.Documents == 0 || snap.Store != "mem" {
			t.Errorf("snapshot result = %+v", snap)
		}
		if _, err := core.LoadSnapshotRepository(store); err != nil {
			t.Errorf("snapshot not loadable: %v", err)
		}

		rec.Record("ByAuthor:picasso", analytics.EntryFrom, "guernica")
		resp = apiDo(t, http.MethodPost, ts.URL+api.BasePath+"/adapt", testToken, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("adapt = %d", resp.StatusCode)
		}
		var ad api.AdaptResult
		decodeBody(t, resp, &ad)
		if ad.AdaptGeneration != 1 {
			t.Errorf("adapt result = %+v, want generation 1", ad)
		}

		// The graph export reflects the recorded hop in full.
		resp = apiDo(t, http.MethodGet, ts.URL+api.BasePath+"/analytics/graph", testToken, "")
		var g api.Graph
		decodeBody(t, resp, &g)
		if !g.Analytics || g.Hops != 1 || g.Contexts["ByAuthor:picasso"].Entries["guernica"] != 1 {
			t.Errorf("graph = %+v", g)
		}
	})
}

// TestAPIUnknownVersionAndResource: /api/v2 and unknown v1 resources
// are structured 404s.
func TestAPIUnknownVersionAndResource(t *testing.T) {
	_, ts := apiTestServer(t, WithAPIToken(testToken))
	wantAPIError(t, apiDo(t, http.MethodGet, ts.URL+"/api/v2/model", testToken, ""),
		http.StatusNotFound)
	wantAPIError(t, apiDo(t, http.MethodGet, ts.URL+api.BasePath+"/teapots", testToken, ""),
		http.StatusNotFound)
	resp := apiDo(t, http.MethodGet, ts.URL+api.BasePath, testToken, "")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET %s = %d, want the endpoint index", api.BasePath, resp.StatusCode)
	}
}
