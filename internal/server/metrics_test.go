package server

import (
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
)

// sampleRe matches one Prometheus sample line: name, optional label
// set, value. The value is validated separately with ParseFloat so
// "+Inf" and scientific notation both pass through one code path.
var sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(?:[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\["\\n])*",?)*\})? (\S+)$`)

// labelRe pulls individual label pairs out of a matched label set.
var labelRe = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\["\\n])*)"`)

// scrape fetches /metrics and returns the exposition body.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestMetricsExpositionRoundTrip drives real traffic through every
// route class, scrapes /metrics, and validates that every emitted line
// parses as Prometheus text format 0.0.4 — the round-trip guarantee a
// scraper depends on. It also checks internal consistency: every
// histogram's +Inf bucket equals its _count, and every required metric
// family is present with the right type.
func TestMetricsExpositionRoundTrip(t *testing.T) {
	_, ts := apiTestServer(t, WithAPIToken(testToken))

	// One of everything: page hit+miss, sitemap, 404, 304, doc fetch.
	tag := firstGet(t, ts.URL+"/ByAuthor/picasso/guitar.html")
	firstGet(t, ts.URL+"/ByAuthor/picasso/guitar.html")
	if resp := condGet(t, ts.URL+"/ByAuthor/picasso/guitar.html", tag); resp.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation = %d, want 304", resp.StatusCode)
	}
	if resp, err := http.Get(ts.URL + "/nowhere.html"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("miss route: %v %v", resp.StatusCode, err)
	}
	if resp, err := http.Get(ts.URL + "/"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("sitemap: %v %v", resp.StatusCode, err)
	}

	text := scrape(t, ts.URL)

	types := map[string]string{}    // family -> declared type
	samples := map[string]float64{} // full series -> value
	counts := map[string]float64{}  // histogram _count series -> value
	infs := map[string]float64{}    // histogram +Inf bucket -> value
	var current string
	for i, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			t.Errorf("line %d: empty line in exposition", i+1)
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 || parts[3] == "" {
				t.Errorf("line %d: malformed HELP: %q", i+1, line)
			}
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) != 4 {
				t.Errorf("line %d: malformed TYPE: %q", i+1, line)
				continue
			}
			switch parts[3] {
			case "counter", "gauge", "histogram":
			default:
				t.Errorf("line %d: unknown metric type %q", i+1, parts[3])
			}
			if _, dup := types[parts[2]]; dup {
				t.Errorf("line %d: family %s declared twice", i+1, parts[2])
			}
			types[parts[2]] = parts[3]
			current = parts[2]
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("line %d: does not parse as a sample: %q", i+1, line)
			continue
		}
		name, labels, value := m[1], m[2], m[3]
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Errorf("line %d: bad value %q: %v", i+1, value, err)
		}
		if v < 0 {
			t.Errorf("line %d: negative sample %q", i+1, line)
		}
		samples[name+labels] = v
		// Samples must belong to the family last declared — the renderer
		// groups series under their TYPE header.
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if base != current && name != current {
			t.Errorf("line %d: sample %s outside its family block (current %s)", i+1, name, current)
		}
		// Collect histogram consistency inputs, keyed by the non-le
		// labels re-serialized in order.
		if strings.HasSuffix(name, "_count") && types[base] == "histogram" {
			counts[base+labels] = v
		}
		if strings.HasSuffix(name, "_bucket") {
			pairs := labelRe.FindAllStringSubmatch(labels, -1)
			var le string
			var rest []string
			for _, p := range pairs {
				if p[1] == "le" {
					le = p[2]
					continue
				}
				rest = append(rest, p[1]+`="`+p[2]+`"`)
			}
			if le == "+Inf" {
				key := base
				if len(rest) > 0 {
					key += "{" + strings.Join(rest, ",") + "}"
				}
				infs[key] = v
			}
		}
	}

	for key, inf := range infs {
		if counts[key] != inf {
			t.Errorf("histogram %s: +Inf bucket %v != _count %v", key, inf, counts[key])
		}
	}

	want := map[string]string{
		"navserve_http_requests_total":           "counter",
		"navserve_http_not_modified_total":       "counter",
		"navserve_http_request_duration_seconds": "histogram",
		"navcore_page_cache_hits_total":          "counter",
		"navcore_page_cache_misses_total":        "counter",
		"navcore_rebuild_duration_seconds":       "histogram",
		"navcore_rebuilds_total":                 "counter",
		"navserve_flush_queue_depth":             "gauge",
		"navserve_cached_pages":                  "gauge",
		"navserve_uptime_seconds":                "gauge",
		"navserve_goroutines":                    "gauge",
		"navserve_heap_bytes":                    "gauge",
	}
	for family, typ := range want {
		if types[family] != typ {
			t.Errorf("family %s: type %q, want %q", family, types[family], typ)
		}
	}

	// The traffic driven above must be visible with its route and status
	// class — and the revalidation in the 304 split. (The registry is
	// process-global, so other tests may have added more; ≥ the traffic
	// this test drove is the invariant.)
	for series, atLeast := range map[string]float64{
		`navserve_http_requests_total{route="page",code="2xx"}`:    2,
		`navserve_http_requests_total{route="page",code="4xx"}`:    1,
		`navserve_http_requests_total{route="sitemap",code="2xx"}`: 1,
		`navserve_http_not_modified_total{route="page"}`:           1,
		`navcore_page_cache_hits_total`:                            1,
		`navcore_page_cache_misses_total`:                          1,
	} {
		if samples[series] < atLeast {
			t.Errorf("series %s = %v, want >= %v", series, samples[series], atLeast)
		}
	}
}

// TestMetricsEndpointContract: /metrics is operational surface — never
// cached, correctly content-typed, bearer-exempt like /healthz, and
// GET/HEAD only.
func TestMetricsEndpointContract(t *testing.T) {
	_, ts := apiTestServer(t, WithAPIToken(testToken))

	resp, err := http.Get(ts.URL + "/metrics") // note: no bearer token
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tokenless GET /metrics = %d, want 200 (bearer-exempt)", resp.StatusCode)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Errorf("Cache-Control = %q, want no-store", cc)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	head, err := http.Head(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	head.Body.Close()
	if head.StatusCode != http.StatusOK {
		t.Errorf("HEAD /metrics = %d, want 200", head.StatusCode)
	}
}

// TestOperationalMethodNotAllowed: the operational endpoints answer
// non-GET/HEAD the way the control plane contract does — 405, an Allow
// header, and a structured JSON error body, never a cached one.
func TestOperationalMethodNotAllowed(t *testing.T) {
	_, ts := apiTestServer(t, WithAPIToken(testToken))
	for _, path := range []string{"/healthz", "/stats", "/metrics"} {
		resp := apiDo(t, http.MethodPost, ts.URL+path, "", "")
		if resp.Header.Get("Allow") != "GET, HEAD" {
			t.Errorf("POST %s Allow = %q, want GET, HEAD", path, resp.Header.Get("Allow"))
		}
		if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
			t.Errorf("POST %s Cache-Control = %q, want no-store", path, cc)
		}
		apiErr := wantAPIError(t, resp, http.StatusMethodNotAllowed)
		if !strings.Contains(apiErr.Message, path) {
			t.Errorf("POST %s error message %q does not name the path", path, apiErr.Message)
		}
	}
	// Ordinary serving routes keep their plain-text refusal: a museum
	// page is not API surface and should not start speaking JSON.
	resp := apiDo(t, http.MethodPost, ts.URL+"/ByAuthor/picasso/guitar.html", "", "")
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "GET, HEAD" {
		t.Errorf("POST page = %d Allow=%q", resp.StatusCode, resp.Header.Get("Allow"))
	}
	if strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") {
		t.Errorf("page 405 is JSON; want plain text for non-operational routes")
	}
}

// TestHealthzRuntimeFields: /healthz carries the process vitals a load
// balancer or a human checks first.
func TestHealthzRuntimeFields(t *testing.T) {
	_, ts := testServer(t)
	time.Sleep(2 * time.Millisecond) // uptime must be observably > 0
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		UptimeSeconds float64 `json:"uptime_seconds"`
		Goroutines    int     `json:"goroutines"`
		HeapBytes     uint64  `json:"heap_bytes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.UptimeSeconds <= 0 {
		t.Errorf("uptime_seconds = %v, want > 0", health.UptimeSeconds)
	}
	if health.Goroutines <= 0 {
		t.Errorf("goroutines = %d, want > 0", health.Goroutines)
	}
	if health.HeapBytes == 0 {
		t.Errorf("heap_bytes = 0, want live heap")
	}
}

// TestVitalsRenderedOnce: every instance vital appears exactly once as
// a /healthz key and once as a /metrics gauge, beside only the status
// strings on /healthz, and an integer vital stays a JSON integer.
func TestVitalsRenderedOnce(t *testing.T) {
	srv, ts := testServer(t)
	doGet(t, ts, "/ByAuthor/picasso/guitar.html", "")
	vitals := srv.vitals()

	_, body, _ := doGet(t, ts, "/healthz", "")
	var health map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatalf("unmarshalling %q: %v", body, err)
	}
	keys := map[string]bool{"status": true, "degraded_cause": true, "store": true}
	gauges := map[string]bool{}
	for _, v := range vitals {
		if keys[v.key] || gauges[v.gauge] {
			t.Errorf("vital %s/%s is listed twice", v.key, v.gauge)
		}
		keys[v.key], gauges[v.gauge] = true, true
		raw, ok := health[v.key]
		if !ok {
			t.Errorf("/healthz lacks vital %q", v.key)
			continue
		}
		// Uptime is the one fractional vital.
		if v.key == "uptime_seconds" {
			continue
		}
		if _, err := strconv.ParseUint(string(raw), 10, 64); err != nil {
			t.Errorf("/healthz %s = %s, want an integer", v.key, raw)
		}
	}
	for k := range health {
		if !keys[k] {
			t.Errorf("/healthz key %q is not a listed vital", k)
		}
	}

	exposition := scrape(t, ts.URL)
	for _, v := range vitals {
		if n := strings.Count(exposition, "\n# TYPE "+v.gauge+" "); n != 1 {
			t.Errorf("/metrics declares %s %d times, want once", v.gauge, n)
		}
		if !strings.Contains(exposition, "\n# TYPE "+v.gauge+" gauge\n") {
			t.Errorf("/metrics %s is not a gauge", v.gauge)
		}
		samples := 0
		for _, line := range strings.Split(exposition, "\n") {
			if strings.HasPrefix(line, v.gauge+" ") || strings.HasPrefix(line, v.gauge+"{") {
				samples++
			}
		}
		if samples != 1 {
			t.Errorf("/metrics has %d %s samples, want 1", samples, v.gauge)
		}
	}
}

// TestMutationEventBlastRadius is the tracing acceptance scenario: a
// structure swap's event must report exactly the family-local blast
// radius — the two cached ByAuthor pages drop and are counted, the
// ByMovement page survives with its ETag intact.
func TestMutationEventBlastRadius(t *testing.T) {
	_, ts := apiTestServer(t, WithAPIToken(testToken))

	// Warm two ByAuthor pages and one ByMovement page into the cache.
	firstGet(t, ts.URL+"/ByAuthor/picasso/guitar.html")
	firstGet(t, ts.URL+"/ByAuthor/picasso/guernica.html")
	movementTag := firstGet(t, ts.URL+"/ByMovement/cubism/guitar.html")

	resp := apiDo(t, http.MethodPut, ts.URL+api.BasePath+"/contexts/ByAuthor/structure",
		testToken, `{"kind":"guided-tour"}`)
	var mut api.MutationResult
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("structure swap = %d", resp.StatusCode)
	}
	decodeBody(t, resp, &mut)

	resp = apiDo(t, http.MethodGet, ts.URL+api.BasePath+"/events?limit=1", testToken, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /events = %d", resp.StatusCode)
	}
	var events api.EventsResponse
	decodeBody(t, resp, &events)
	if len(events.Events) != 1 {
		t.Fatalf("events = %+v, want exactly 1 with limit=1", events)
	}
	e := events.Events[0]
	if e.Kind != "structure-swap" || e.Target != "ByAuthor" {
		t.Errorf("event = %+v, want structure-swap of ByAuthor", e)
	}
	if e.PagesInvalidated != 2 {
		t.Errorf("event pages_invalidated = %d, want 2 (the warmed ByAuthor pages)", e.PagesInvalidated)
	}
	if e.PagesInvalidated != mut.DroppedPages {
		t.Errorf("event blast radius %d disagrees with the mutation report %d",
			e.PagesInvalidated, mut.DroppedPages)
	}
	if e.Verdict != "local" {
		t.Errorf("event verdict = %q, want local (family-scoped diff)", e.Verdict)
	}
	if e.CacheGeneration != mut.CacheGeneration {
		t.Errorf("event generation %d != mutation generation %d", e.CacheGeneration, mut.CacheGeneration)
	}
	if e.DurationSeconds <= 0 {
		t.Errorf("event duration_seconds = %v, want > 0", e.DurationSeconds)
	}

	// The uninvolved family's page survived the swap.
	if resp := condGet(t, ts.URL+"/ByMovement/cubism/guitar.html", movementTag); resp.StatusCode != http.StatusNotModified {
		t.Errorf("ByMovement revalidation after ByAuthor swap = %d, want 304", resp.StatusCode)
	}

	// A bad limit is a structured 400, not a silent default.
	resp = apiDo(t, http.MethodGet, ts.URL+api.BasePath+"/events?limit=zero", testToken, "")
	wantAPIError(t, resp, http.StatusBadRequest)
}

// BenchmarkObserveRequest prices the full per-request metrics hook:
// route counter, status split, latency histogram.
func BenchmarkObserveRequest(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		observeRequest(routePage, http.StatusOK, 1200*time.Nanosecond)
	}
}
