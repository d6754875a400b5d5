package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"testing"

	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/museum"
	"repro/internal/navigation"
)

// oracleStylesheet is the presentation the HTTP rebuild oracle installs
// and deletes.
const oracleStylesheet = `<s:stylesheet xmlns:s="urn:repro:style">
  <s:template match="Painting">
    <html><head><title><s:value-of select="title"/></title></head>
    <body><h2><s:value-of select="title"/> (<s:value-of select="year"/>)</h2><p><s:value-of select="technique"/></p></body></html>
  </s:template>
</s:stylesheet>`

// resource is one page or document the oracle's client fetched: what
// the fresh app serves it from, and the last ETag and body it got.
type resource struct {
	context, node string // a page's; empty for a document
	uri           string // a document's repository name
	etag          string
	body          []byte
}

// httpOracle drives seeded mutations through /api/v1 and checks, after
// each one, every page and document its client has fetched against a
// fresh core.NewApp over the same store, model and stylesheet.
type httpOracle struct {
	t        *testing.T
	rng      *rand.Rand
	app      *core.App
	cached   *httptest.Server // the control plane and the page cache
	plain    *httptest.Server // WithoutPageCache over the same App
	families []string
	kept     map[string]*resource // by request path
	seen     map[int]int          // responses by status code
	swaps    int                  // adapt cycles that swapped a structure
}

// TestHTTPRebuildMatchesFreshApp is the rebuild oracle at the HTTP
// layer. Caption, title and year PATCHes, structure PUTs, stylesheet
// PUTs and DELETEs, and adapt cycles fed by a visitor's walk go through
// /api/v1, while a client keeps the last ETag and body of every page
// and document it fetched. After each mutation it revalidates all of
// them with conditional GETs and fetches a few new pages. A 304 is
// allowed only when the kept body is what a fresh App serves, every 200
// body must equal the fresh App's, and a server without a page cache
// over the same App serves the same bodies. At least one adapt cycle
// must swap a structure.
func TestHTTPRebuildMatchesFreshApp(t *testing.T) {
	steps := 60
	if testing.Short() {
		steps = 15
	}
	store := museum.Synthetic(museum.SyntheticSpec{Painters: 4, PaintingsPerPainter: 2, Movements: 2, Seed: 6})
	m := museum.Model(navigation.IndexedGuidedTour{})
	m.MustAddContext(&navigation.ContextDef{
		Name: "Recent", NodeClass: "PaintingNode", GroupBy: "paints",
		OrderBy: "year", Where: "year >= 1960", Access: navigation.Index{}, Show: "embed",
	})
	m.MustAddContext(&navigation.ContextDef{
		Name: "AllPaintings", NodeClass: "PaintingNode", OrderBy: "title", Access: navigation.GuidedTour{},
	})
	m.MustAddLandmark("AllPaintings")
	app, err := core.NewApp(store, m)
	if err != nil {
		t.Fatal(err)
	}
	o := &httpOracle{t: t, rng: rand.New(rand.NewSource(4)), app: app,
		cached: httptest.NewServer(New(app, WithAPIToken(testToken),
			WithAnalytics(analytics.NewRecorder(analytics.RecorderConfig{})),
			WithDeriveConfig(analytics.Config{MinHops: 1}))),
		plain:    httptest.NewServer(New(app, WithoutPageCache())),
		families: []string{"ByAuthor", "ByMovement", "Recent", "AllPaintings"},
		kept:     map[string]*resource{}, seen: map[int]int{}}
	defer o.cached.Close()
	defer o.plain.Close()
	o.kept["/links.xml"] = &resource{uri: "links.xml"}
	for _, inst := range store.InstancesOf("Painting")[:3] {
		uri := navigation.NodeHref(inst.ID)
		o.kept["/data/"+uri] = &resource{uri: uri}
	}
	o.check("initial build")
	for i := 0; i < steps; i++ {
		o.check(fmt.Sprintf("step %d: %s", i, o.mutate()))
	}
	for _, code := range []int{http.StatusOK, http.StatusNotModified, http.StatusNotFound} {
		if o.seen[code] == 0 {
			t.Errorf("the run saw no %d response: %v", code, o.seen)
		}
	}
	if o.swaps == 0 {
		t.Error("no adapt cycle of the run swapped a structure")
	}
	t.Logf("%d pages and documents kept; responses by status: %v; %d adapt swaps", len(o.kept), o.seen, o.swaps)
}

// mutate applies one random mutation through the control plane and
// describes it.
func (o *httpOracle) mutate() string {
	paintings := o.app.Store().InstancesOf("Painting")
	id := paintings[o.rng.Intn(len(paintings))].ID
	patch := func(attr, value string) string {
		body, _ := json.Marshal(map[string]map[string]string{"set": {attr: value}})
		o.api(http.MethodPatch, "/api/v1/documents/"+id, string(body))
		return fmt.Sprintf("%s %s=%q", id, attr, value)
	}
	switch k := o.rng.Intn(12); {
	case k < 2:
		return patch("technique", "Medium "+strconv.Itoa(o.rng.Intn(4)))
	case k < 4:
		return patch("title", "Work "+strconv.Itoa(o.rng.Intn(30)))
	case k < 6:
		return patch("year", strconv.Itoa(1850+o.rng.Intn(150)))
	case k < 9:
		family := o.families[o.rng.Intn(len(o.families))]
		kind := []string{"index", "guided-tour", "circular-guided-tour", "indexed-guided-tour", "menu"}[o.rng.Intn(5)]
		o.api(http.MethodPut, "/api/v1/contexts/"+family+"/structure", `{"kind":"`+kind+`"}`)
		return family + " -> " + kind
	case k < 11:
		return o.walkAndAdapt()
	}
	if _, ok := o.app.StylesheetXML(); ok {
		o.api(http.MethodDelete, "/api/v1/stylesheet", "")
		return "stylesheet deleted"
	}
	o.api(http.MethodPut, "/api/v1/stylesheet", oracleStylesheet)
	return "stylesheet put"
}

// walkAndAdapt sends one visitor with a cookie jar through a context —
// page GETs, then /go/next, /go/prev and /go/select — and then forces an
// adapt cycle, which derives tours from every hop recorded so far and
// swaps each family whose tour changed.
func (o *httpOracle) walkAndAdapt() string {
	o.t.Helper()
	client := noRedirectClient()
	step := func(path string, want ...int) {
		o.t.Helper()
		if resp := getRaw(o.t, client, o.cached.URL+path); !slices.Contains(want, resp.StatusCode) {
			o.t.Fatalf("walk: GET %s = %d, want one of %v", path, resp.StatusCode, want)
		}
	}
	contexts := o.app.Resolved().Contexts
	rc := contexts[o.rng.Intn(len(contexts))]
	for i := 0; i < 3; i++ {
		step("/"+core.PagePath(rc.Name, rc.Members[o.rng.Intn(len(rc.Members))].ID()), http.StatusOK)
	}
	step("/go/next", http.StatusSeeOther, http.StatusConflict)
	step("/go/prev", http.StatusSeeOther, http.StatusConflict)
	if rc.Def.Access.HasHub() {
		step("/"+core.PagePath(rc.Name, navigation.HubID), http.StatusOK)
	}
	node := rc.Members[o.rng.Intn(len(rc.Members))].ID()
	step("/go/select?node="+url.QueryEscape(node), http.StatusSeeOther, http.StatusConflict)
	before := o.app.Events().Total()
	o.api(http.MethodPost, "/api/v1/adapt", "")
	swapped := o.app.Events().Total() > before
	if swapped {
		o.swaps++
	}
	return fmt.Sprintf("walk in %s, adapt (swapped: %v)", rc.Name, swapped)
}

// api makes one control-plane request, which must succeed.
func (o *httpOracle) api(method, path, body string) {
	o.t.Helper()
	resp := apiDo(o.t, method, o.cached.URL+path, testToken, body)
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		o.t.Fatalf("%s %s = %d: %s", method, path, resp.StatusCode, msg)
	}
}

// check builds the fresh app, adds a few pages the client has not
// fetched, and revalidates every kept resource on both servers.
func (o *httpOracle) check(label string) {
	o.t.Helper()
	fresh, err := core.NewApp(o.app.Store(), o.app.Model())
	if err != nil {
		o.t.Fatalf("%s: fresh app: %v", label, err)
	}
	if src, ok := o.app.StylesheetXML(); ok {
		if err := fresh.SetStylesheetXML(src); err != nil {
			o.t.Fatal(err)
		}
	}
	contexts := fresh.Resolved().Contexts
	for i := 0; i < 4; i++ {
		rc := contexts[o.rng.Intn(len(contexts))]
		node := rc.Members[o.rng.Intn(len(rc.Members))].ID()
		if rc.Def.Access.HasHub() && o.rng.Intn(3) == 0 {
			node = navigation.HubID
		}
		if path := "/" + core.PagePath(rc.Name, node); o.kept[path] == nil {
			o.kept[path] = &resource{context: rc.Name, node: node}
		}
	}
	for path, r := range o.kept {
		want, ok := r.fresh(fresh)
		code, etag, body := o.get(o.cached.URL+path, r.etag)
		o.seen[code]++
		switch {
		case code == http.StatusNotModified && !bytes.Equal(r.body, want):
			o.t.Fatalf("%s: %s answered 304 to %s, but the fresh app serves\n%s\nnot the kept\n%s", label, path, r.etag, want, r.body)
		case code == http.StatusNotModified:
		case code == http.StatusNotFound && !ok:
			if code, _, _ := o.get(o.plain.URL+path, ""); code != http.StatusNotFound {
				o.t.Fatalf("%s: %s without a page cache answered %d, with one 404", label, path, code)
			}
			delete(o.kept, path)
			continue
		case code != http.StatusOK || !ok || !bytes.Equal(body, want):
			o.t.Fatalf("%s: %s answered %d with\n%s\nthe fresh app serves (%v)\n%s", label, path, code, body, ok, want)
		default:
			r.etag, r.body = etag, body
		}
		if code, _, body := o.get(o.plain.URL+path, ""); code != http.StatusOK || !bytes.Equal(body, want) {
			o.t.Fatalf("%s: %s without a page cache answered %d with\n%s\nthe fresh app serves\n%s", label, path, code, body, want)
		}
	}
}

// fresh returns what the fresh app serves for r, and whether it has it.
func (r *resource) fresh(app *core.App) ([]byte, bool) {
	if r.uri != "" {
		body, _, _, err := app.DocBytes(r.uri)
		return body, err == nil
	}
	page, err := app.RenderPage(r.context, r.node)
	if err != nil {
		return nil, false
	}
	return page.Body, true
}

// get makes one GET, conditional when inm is set, and returns the
// status, the ETag and the body.
func (o *httpOracle) get(url, inm string) (int, string, []byte) {
	o.t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		o.t.Fatal(err)
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		o.t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		o.t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("ETag"), body
}
