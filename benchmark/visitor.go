package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/load"
)

// hubNode is the node id navserve reports for a context's entry page.
const hubNode = "_index"

// entry is one navigation-history position, with the field names of
// navserve's /history entries.
type entry struct {
	Context string `json:"Context"`
	NodeID  string `json:"NodeID"`
}

// history is the benchmark's own model of a visitor's navigation
// history, after Brewster & Jeffrey: a list with a cursor. Navigating
// to a new page drops the entries after the cursor and appends; back
// and forward move the cursor; loading the page under the cursor (a
// reload, or following a traversal's redirect) changes nothing. It is
// written from the model, not from internal/navigation, so agreement
// with the server is evidence rather than a tautology. Walks here stay
// far below navserve's default trail limit, so the mirror never trims.
type history struct {
	Entries []entry `json:"entries"`
	Cursor  int     `json:"cursor"`
}

func (h *history) navigate(e entry) {
	if len(h.Entries) > 0 && h.Entries[h.Cursor] == e {
		return
	}
	if len(h.Entries) > 0 {
		h.Entries = h.Entries[:h.Cursor+1]
	}
	h.Entries = append(h.Entries, e)
	h.Cursor = len(h.Entries) - 1
}

func (h *history) current() entry { return h.Entries[h.Cursor] }

func (h *history) equal(o history) bool {
	if h.Cursor != o.Cursor || len(h.Entries) != len(o.Entries) {
		return false
	}
	for i := range h.Entries {
		if h.Entries[i] != o.Entries[i] {
			return false
		}
	}
	return true
}

// pagePath maps a history position to its page URL.
func pagePath(e entry) string {
	dir := "/" + strings.ReplaceAll(e.Context, ":", "/")
	if e.NodeID == hubNode {
		return dir + "/index.html"
	}
	return dir + "/" + e.NodeID + ".html"
}

// parsePagePath inverts pagePath on a redirect target.
func parsePagePath(path string) (entry, bool) {
	p, ok := strings.CutSuffix(strings.TrimPrefix(path, "/"), ".html")
	if !ok {
		return entry{}, false
	}
	i := strings.LastIndexByte(p, '/')
	if i <= 0 {
		return entry{}, false
	}
	node := p[i+1:]
	if node == "index" {
		node = hubNode
	}
	return entry{Context: strings.ReplaceAll(p[:i], "/", ":"), NodeID: node}, true
}

// siteContext is one resolved context as /api/v1/contexts reports it.
type siteContext struct {
	Name      string   `json:"name"`
	Family    string   `json:"family"`
	Access    string   `json:"access"`
	HasHub    bool     `json:"has_hub"`
	MemberIDs []string `json:"member_ids"`
}

// The access structures the workloads serve, and so the only ones the
// traversal oracle models: an index (hub, member and up edges) and an
// indexed guided tour (the same plus next and prev between consecutive
// members, not closed into a ring).
const (
	accessIndex = "index"
	accessTour  = "indexed-guided-tour"
)

// site is what the generator knows of the woven site: the contexts, in
// the server's order, with their access structures and their members in
// context order.
type site struct {
	contexts []siteContext
	byName   map[string]*siteContext
	families []string
}

func fetchSite(t transport, token string) (*site, error) {
	raw, err := getBody(t, "/api/v1/contexts", token)
	if err != nil {
		return nil, err
	}
	return parseSite(raw)
}

// parseSite decodes a /api/v1/contexts answer.
func parseSite(raw []byte) (*site, error) {
	s := &site{byName: map[string]*siteContext{}}
	if err := json.Unmarshal(raw, &s.contexts); err != nil {
		return nil, fmt.Errorf("decoding /api/v1/contexts: %w", err)
	}
	for i := range s.contexts {
		c := &s.contexts[i]
		if len(c.MemberIDs) == 0 || !c.HasHub {
			return nil, fmt.Errorf("context %s: want members and a hub", c.Name)
		}
		if c.Access != accessIndex && c.Access != accessTour {
			return nil, fmt.Errorf("context %s: access %q is neither %s nor %s", c.Name, c.Access, accessIndex, accessTour)
		}
		s.byName[c.Name] = c
		if len(s.families) == 0 || s.families[len(s.families)-1] != c.Family {
			s.families = append(s.families, c.Family)
		}
	}
	if len(s.families) != 2 {
		return nil, fmt.Errorf("want 2 context families, server has %v", s.families)
	}
	return s, nil
}

// expect is the right answer to /go/{action} (with ?node= for select)
// from position from: the entry a 303 must name, or ok false when the
// edge does not exist and the answer must be 409.
func (s *site) expect(from entry, action, node string) (to entry, ok bool) {
	c := s.byName[from.Context]
	if c == nil {
		return entry{}, false
	}
	at := -1 // the hub
	for i, m := range c.MemberIDs {
		if m == from.NodeID {
			at = i
		}
	}
	member := func(i int) (entry, bool) { return entry{Context: c.Name, NodeID: c.MemberIDs[i]}, true }
	switch {
	case action == "next" && c.Access == accessTour && at >= 0 && at+1 < len(c.MemberIDs):
		return member(at + 1)
	case action == "prev" && c.Access == accessTour && at > 0:
		return member(at - 1)
	case action == "up" && at >= 0:
		return entry{Context: c.Name, NodeID: hubNode}, true
	case action == "select" && at < 0:
		for i, m := range c.MemberIDs {
			if m == node {
				return member(i)
			}
		}
	}
	return entry{}, false
}

// sameMembers reports whether o has the same contexts as s, each with
// the same members, in any order.
func (s *site) sameMembers(o *site) bool {
	if len(s.contexts) != len(o.contexts) {
		return false
	}
	for _, c := range s.contexts {
		oc := o.byName[c.Name]
		if oc == nil || oc.Family != c.Family || len(oc.MemberIDs) != len(c.MemberIDs) {
			return false
		}
		set := map[string]bool{}
		for _, m := range c.MemberIDs {
			set[m] = true
		}
		for _, m := range oc.MemberIDs {
			if !set[m] {
				return false
			}
		}
	}
	return true
}

// liveSite follows the navigation the server answers with while the
// edit writer changes it. A structure flip changes a family's access
// structure, and a title PATCH can reorder the contexts ordered by
// title. The writer marks such a change pending before sending it and,
// once it has returned, publishes the site it reads back from the
// server. A traversal in flight across a change may meet either side,
// so it is right if any site published from its send to its answer, or
// the pending one, gives its answer. A check that needs a site not yet
// published waits until the writer publishes it.
type liveSite struct {
	mu       sync.Mutex
	sites    []*site // in publication order; nil where a change's result is unknown
	pending  bool
	deferred []traversal
}

func newLiveSite(s *site) *liveSite { return &liveSite{sites: []*site{s}} }

// traversal is one answered /go/next, prev, up or select, with the
// range of published sites the server may have answered from.
type traversal struct {
	visitor      int
	cookie       string
	from         entry
	action, node string
	status       int
	location     string
	lo, hi       int
}

// sent is the first site a request sent now may meet.
func (l *liveSite) sent() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.sites) - 1
}

// judge checks tr, whose answer has just come back, now or once the
// site it may have met is published.
func (l *liveSite) judge(tr traversal, t *tally) {
	l.mu.Lock()
	defer l.mu.Unlock()
	tr.hi = len(l.sites) - 1
	if l.pending {
		tr.hi++
	}
	if tr.hi < len(l.sites) {
		l.check(tr, t)
		return
	}
	l.deferred = append(l.deferred, tr)
}

// check holds tr against its sites; l.mu is held.
func (l *liveSite) check(tr traversal, t *tally) {
	for _, s := range l.sites[tr.lo : tr.hi+1] {
		if s == nil {
			return // the change's result is unknown, so is the right answer
		}
		to, ok := s.expect(tr.from, tr.action, tr.node)
		if (!ok && tr.status == http.StatusConflict) ||
			(ok && tr.status == http.StatusSeeOther && tr.location == pagePath(to)) {
			return
		}
	}
	want, path := "409", "/go/"+tr.action
	if to, ok := l.sites[tr.hi].expect(tr.from, tr.action, tr.node); ok {
		want = "303 " + pagePath(to)
	}
	if tr.node != "" {
		path += "?node=" + tr.node
	}
	t.violate("visitor %d (%s): %s from %s answered %d %q, site says %s",
		tr.visitor, tr.cookie, path, pagePath(tr.from), tr.status, tr.location, want)
}

// change marks a navigation change in flight.
func (l *liveSite) change() {
	l.mu.Lock()
	l.pending = true
	l.mu.Unlock()
}

// publish ends the pending change with the site read back afterwards
// (nil if it could not be read) and judges the checks that waited for it.
func (l *liveSite) publish(s *site, t *tally) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sites = append(l.sites, s)
	l.pending = false
	waiting := l.deferred
	l.deferred = nil
	for _, tr := range waiting {
		l.check(tr, t)
	}
}

// tally accumulates one worker's outcomes; tallies are merged after a
// phase, so recording needs no lock.
type tally struct {
	steps       []stepSample    // visitor steps completed
	mutations   []time.Duration // control-plane mutation round trips
	requests    int
	failed      int // transport errors and 5xx
	conditional int // page GETs sent with If-None-Match
	violations  []string
	nviolations int
}

func (t *tally) violate(format string, args ...any) {
	t.nviolations++
	if len(t.violations) < 10 {
		t.violations = append(t.violations, fmt.Sprintf(format, args...))
	}
}

func (t *tally) merge(o *tally) {
	t.steps = append(t.steps, o.steps...)
	t.mutations = append(t.mutations, o.mutations...)
	t.requests += o.requests
	t.failed += o.failed
	t.conditional += o.conditional
	t.nviolations += o.nviolations
	for _, v := range o.violations {
		if len(t.violations) < 10 {
			t.violations = append(t.violations, v)
		}
	}
}

// stepSample is one completed visitor step: when it was due, as an
// offset from the phase's start, and its latency from that due time.
type stepSample struct {
	due, latency time.Duration
}

// latencies returns the samples' latencies, sorted.
func latencies(s []stepSample) []time.Duration {
	d := make([]time.Duration, len(s))
	for i, x := range s {
		d[i] = x.latency
	}
	sortDurations(d)
	return d
}

// env is what every step needs besides its transport and tally.
type env struct {
	// site is the site as the run found it. Visitors draw their entries
	// and selections from it, so the same seed makes the same draws
	// however the writer reorders the live site.
	site  *site
	live  *liveSite
	token string
	// The traced run sets these: apply makes the writer's mutations
	// through core.App instead of the control plane, and record keeps
	// every visitor's navigation calls for the replay of internal
	// layers.
	apply  func(*mutation) error
	record bool
}

// navOp is one navigation call the server makes for a request:
// EnterContext for a page load, or a traversal.
type navOp struct {
	call, context, node string
}

// visitor is one simulated browser session. Its steps are due at
// offsets drawn before the phase starts; a step runs when it is due
// and the visitor's previous step has completed.
type visitor struct {
	id        int
	rng       *rand.Rand
	cookie    string
	hist      history
	etags     map[string]string // page path -> ETag of its last 200
	returning bool              // resume: the first step reloads the recorded page
	started   bool
	w         *writer // non-nil for the control-plane writer
	ops       []navOp // with env.record, the session's navigation calls

	// schedule of the current phase
	due     []time.Duration
	next    int
	readyAt time.Time
}

func newVisitor(id int, seed int64) *visitor {
	return &visitor{id: id, rng: rand.New(rand.NewSource(seed*1_000_003 + int64(id))), etags: map[string]string{}}
}

// get sends one request, counting it, and reports whether a usable
// answer came back (a transport error or 5xx is a failure).
func (v *visitor) get(tr transport, t *tally, req *request) (response, bool) {
	req.cookie = v.cookie
	t.requests++
	resp, err := tr.do(req)
	if err != nil || resp.status >= 500 {
		t.failed++
		return resp, false
	}
	if resp.cookie != "" {
		// A visitor's session must survive every step; the writer's
		// session carries no history anyone checks.
		if v.cookie != "" && v.w == nil {
			t.violate("visitor %d: server replaced session %s on %s %s", v.id, v.cookie, req.method, req.path)
		}
		v.cookie = resp.cookie
	}
	return resp, true
}

// page GETs a page; a 200 records its ETag.
func (v *visitor) page(e *env, tr transport, t *tally, path, inm string) (response, bool) {
	if inm != "" {
		t.conditional++
	}
	resp, ok := v.get(tr, t, &request{method: http.MethodGet, path: path, ifNoneMatch: inm})
	if !ok {
		return resp, false
	}
	if p, parsed := parsePagePath(path); e.record && parsed {
		v.ops = append(v.ops, navOp{call: "enter", context: p.Context, node: p.NodeID})
	}
	switch {
	case resp.status == http.StatusOK:
		v.etags[path] = resp.etag
	case resp.status == http.StatusNotModified && inm != "":
		// The visitor's copy is still current.
	default:
		t.violate("visitor %d: GET %s answered %d", v.id, path, resp.status)
		return resp, false
	}
	return resp, true
}

const (
	actNext = iota
	actPrev
	actUp
	actSelect
	actJump
	actBack
	actForward
	actReload
	actStorm
)

// draw samples load.DefaultMix, the navload action mix.
func (v *visitor) draw() int {
	m := load.DefaultMix
	w := [...]int{m.Next, m.Prev, m.Up, m.Select, m.Jump, m.Back, m.Forward, m.Reload, m.Storm}
	total := 0
	for _, x := range w {
		total += x
	}
	n := v.rng.Intn(total)
	for i, x := range w {
		if n < x {
			return i
		}
		n -= x
	}
	return actReload
}

// step performs the visitor's next step.
func (v *visitor) step(tr transport, e *env, t *tally) {
	if v.w != nil {
		v.w.mutate(v, tr, e, t)
		return
	}
	if !v.started || len(v.hist.Entries) == 0 {
		v.started = true
		if v.returning {
			v.page(e, tr, t, pagePath(v.hist.current()), "")
			return
		}
		sc := &e.site.contexts[v.rng.Intn(len(e.site.contexts))]
		v.enter(e, tr, t, entry{Context: sc.Name, NodeID: hubNode})
		return
	}
	switch a := v.draw(); a {
	case actNext, actPrev, actUp:
		v.traverse(e, tr, t, [...]string{"next", "prev", "up"}[a], "")
	case actSelect:
		sc := e.site.byName[v.hist.current().Context]
		v.traverse(e, tr, t, "select", sc.MemberIDs[v.rng.Intn(len(sc.MemberIDs))])
	case actJump:
		sc := &e.site.contexts[v.rng.Intn(len(e.site.contexts))]
		v.enter(e, tr, t, entry{Context: sc.Name, NodeID: sc.MemberIDs[v.rng.Intn(len(sc.MemberIDs))]})
	case actBack:
		v.seek(e, tr, t, "back", v.hist.Cursor-1)
	case actForward:
		v.seek(e, tr, t, "forward", v.hist.Cursor+1)
	case actReload:
		v.reload(e, tr, t, 1)
	case actStorm:
		v.reload(e, tr, t, 2+v.rng.Intn(4))
	}
}

// enter GETs a page directly, as a link from outside the site would.
func (v *visitor) enter(e *env, tr transport, t *tally, to entry) {
	if _, ok := v.page(e, tr, t, pagePath(to), ""); ok {
		v.hist.navigate(to)
	}
}

// traverse follows /go/{action}, whose answer the live site predicts: a
// 303 names the neighbour the access structure links to, and the
// browser then loads it; a 409 is right only where that edge does not
// exist (a tour's ends, an index's members, select away from a hub).
func (v *visitor) traverse(e *env, tr transport, t *tally, action, node string) {
	path := "/go/" + action
	if node != "" {
		path += "?node=" + node
	}
	from, lo := v.hist.current(), e.live.sent()
	resp, ok := v.get(tr, t, &request{method: http.MethodGet, path: path})
	if !ok {
		return
	}
	if e.record {
		v.ops = append(v.ops, navOp{call: action, node: node})
	}
	e.live.judge(traversal{visitor: v.id, cookie: v.cookie, from: from, action: action, node: node,
		status: resp.status, location: resp.location, lo: lo}, t)
	if resp.status != http.StatusSeeOther {
		return
	}
	if target, parsed := parsePagePath(resp.location); parsed {
		v.hist.navigate(target)
		v.page(e, tr, t, resp.location, "")
	}
}

// seek drives /go/back or /go/forward and holds the redirect to the
// mirror: it must name exactly the entry at cursor want, and a 409 is
// right only when the history has no entry there.
func (v *visitor) seek(e *env, tr transport, t *tally, action string, want int) {
	can := want >= 0 && want < len(v.hist.Entries)
	resp, ok := v.get(tr, t, &request{method: http.MethodGet, path: "/go/" + action})
	if !ok {
		return
	}
	if e.record {
		v.ops = append(v.ops, navOp{call: action})
	}
	switch {
	case resp.status == http.StatusConflict && !can:
	case resp.status == http.StatusSeeOther && can && resp.location == pagePath(v.hist.Entries[want]):
		v.hist.Cursor = want
		v.page(e, tr, t, resp.location, "")
	case can:
		t.violate("visitor %d (%s): /go/%s answered %d %q, history says %s",
			v.id, v.cookie, action, resp.status, resp.location, pagePath(v.hist.Entries[want]))
	default:
		t.violate("visitor %d (%s): /go/%s answered %d %q, history has no entry there",
			v.id, v.cookie, action, resp.status, resp.location)
	}
}

// reload re-GETs the current page n times, revalidating with the
// ETag the visitor holds, as a browser does.
func (v *visitor) reload(e *env, tr transport, t *tally, n int) {
	path := pagePath(v.hist.current())
	for i := 0; i < n; i++ {
		if _, ok := v.page(e, tr, t, path, v.etags[path]); !ok {
			return
		}
	}
}
