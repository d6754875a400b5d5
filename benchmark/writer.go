package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"time"
)

// probeStylesheet is the presentation the writer installs and removes.
const probeStylesheet = `<s:stylesheet xmlns:s="urn:repro:style">
  <s:template match="Painting">
    <html><head><title><s:value-of select="title"/></title></head>
    <body><h2 class="bench"><s:value-of select="title"/> (<s:value-of select="year"/>)</h2></body></html>
  </s:template>
</s:stylesheet>`

// writer is the seeded control-plane operator of the edit workload.
// Every kind of mutation keeps each context's hub and members, so every
// visitor's history stays resolvable while the model changes under it.
type writer struct {
	rng        *rand.Rand
	serial     int
	deck       []int             // kinds of the mutations left in this round
	kinds      map[string]string // family -> current access structure
	stylesheet bool
}

func newWriter(seed int64, s *site) *writer {
	w := &writer{rng: rand.New(rand.NewSource(seed ^ 0x5eed)), kinds: map[string]string{}}
	for _, c := range s.contexts {
		w.kinds[c.Family] = c.Access
	}
	return w
}

// mutation is one control-plane write and the pages that check it:
// target must carry a new ETag afterwards; probe, outside the
// mutation's reach, must still answer 304 to its old one.
type mutation struct {
	name          string
	req           request
	target, probe string
	// The same change as core.App calls, for the traced run.
	kind, id, attr, value, family, access string
	install                               bool
}

// plan draws the next mutation: caption and title PATCHes, structure
// flips between indexed-guided-tour and index, and stylesheet PUT or
// DELETE. No measured operator mix is at hand, so every round of four
// holds one of each in a seeded order, and each run times the same mix.
func (w *writer) plan(s *site) mutation {
	w.serial++
	if len(w.deck) == 0 {
		w.deck = []int{0, 1, 2, 3}
		w.rng.Shuffle(len(w.deck), func(i, j int) { w.deck[i], w.deck[j] = w.deck[j], w.deck[i] })
	}
	kind := w.deck[0]
	w.deck = w.deck[1:]
	painting := func() (string, *siteContext) {
		c := &s.contexts[w.rng.Intn(len(s.contexts))]
		for c.Family != s.families[0] {
			c = &s.contexts[w.rng.Intn(len(s.contexts))]
		}
		return c.MemberIDs[w.rng.Intn(len(c.MemberIDs))], c
	}
	member := func(family string) string {
		for {
			c := &s.contexts[w.rng.Intn(len(s.contexts))]
			if c.Family == family {
				return pagePath(entry{Context: c.Name, NodeID: c.MemberIDs[w.rng.Intn(len(c.MemberIDs))]})
			}
		}
	}
	patch := func(id, attr, value string) request {
		return request{method: http.MethodPatch, path: "/api/v1/documents/" + id, contentType: "application/json",
			body: []byte(fmt.Sprintf(`{"set":{%q:%q}}`, attr, value))}
	}
	switch kind {
	case 0:
		id, c := painting()
		other, oc := painting()
		for oc == c {
			other, oc = painting()
		}
		value := fmt.Sprintf("Technique %d", w.serial)
		return mutation{name: "caption " + id, req: patch(id, "technique", value),
			target: pagePath(entry{Context: c.Name, NodeID: id}), probe: pagePath(entry{Context: oc.Name, NodeID: other}),
			kind: "document", id: id, attr: "technique", value: value}
	case 1:
		fi := w.rng.Intn(len(s.families))
		family, other := s.families[fi], s.families[1-fi]
		access := accessIndex
		if w.kinds[family] == access {
			access = accessTour
		}
		w.kinds[family] = access
		return mutation{name: "structure " + family + " " + access,
			req: request{method: http.MethodPut, path: "/api/v1/contexts/" + family + "/structure",
				contentType: "application/json", body: []byte(fmt.Sprintf(`{"kind":%q}`, access))},
			target: member(family), probe: member(other), kind: "structure", family: family, access: access}
	case 2:
		id, c := painting()
		value := fmt.Sprintf("Work %d", w.serial)
		return mutation{name: "title " + id, req: patch(id, "title", value),
			target: pagePath(entry{Context: c.Name, NodeID: id}), kind: "document", id: id, attr: "title", value: value}
	default:
		hub := &s.contexts[w.rng.Intn(len(s.contexts))]
		m := mutation{name: "stylesheet", target: member(s.families[w.rng.Intn(2)]),
			probe: pagePath(entry{Context: hub.Name, NodeID: hubNode}), kind: "stylesheet", install: !w.stylesheet}
		if w.stylesheet {
			m.req = request{method: http.MethodDelete, path: "/api/v1/stylesheet"}
		} else {
			m.req = request{method: http.MethodPut, path: "/api/v1/stylesheet", contentType: "application/xml",
				body: []byte(probeStylesheet)}
		}
		w.stylesheet = !w.stylesheet
		return m
	}
}

// mutate performs one planned mutation with its checks, timing the
// mutation's round trip alone: the change is live when it returns.
func (w *writer) mutate(v *visitor, tr transport, e *env, t *tally) {
	m := w.plan(e.site)
	before := map[string]string{}
	for _, p := range []string{m.target, m.probe} {
		if p == "" {
			continue
		}
		resp, ok := v.page(e, tr, t, p, "")
		if !ok {
			return
		}
		before[p] = resp.etag
	}
	// A structure flip changes what traversals answer, and a title can
	// reorder the contexts ordered by title.
	navigational := m.kind == "structure" || m.attr == "title"
	if navigational {
		e.live.change()
	}
	applied := w.apply(&m, v, tr, e, t)
	if navigational {
		e.live.publish(w.readBack(v, tr, e, t), t)
	}
	if !applied {
		return
	}
	if resp, ok := v.page(e, tr, t, m.target, before[m.target]); ok && (resp.status != http.StatusOK || resp.etag == before[m.target]) {
		t.violate("writer: after %s, %s answered %d with ETag %s (before: %s)", m.name, m.target, resp.status, resp.etag, before[m.target])
	}
	if m.probe == "" {
		return
	}
	if resp, ok := v.page(e, tr, t, m.probe, before[m.probe]); ok && resp.status != http.StatusNotModified {
		t.violate("writer: after %s, probe %s answered %d, want 304", m.name, m.probe, resp.status)
	}
}

// apply makes the mutation, through the control plane or, in the traced
// run, through core.App, and reports whether it succeeded.
func (w *writer) apply(m *mutation, v *visitor, tr transport, e *env, t *tally) bool {
	if e.apply != nil {
		if err := e.apply(m); err != nil {
			t.violate("writer: %s: %v", m.name, err)
			return false
		}
		return true
	}
	m.req.token = e.token
	from := time.Now()
	resp, ok := v.get(tr, t, &m.req)
	if !ok {
		return false
	}
	t.mutations = append(t.mutations, time.Since(from))
	if resp.status != http.StatusOK {
		t.violate("writer: %s answered %d", m.name, resp.status)
		return false
	}
	return true
}

// readBack reads the site after a navigational mutation and checks it
// against the writer's own account: the same contexts and members, and
// each family on the structure the writer last set. It returns nil when
// the site could not be read.
func (w *writer) readBack(v *visitor, tr transport, e *env, t *tally) *site {
	resp, ok := v.get(tr, t, &request{method: http.MethodGet, path: "/api/v1/contexts", token: e.token, wantBody: true})
	if !ok {
		return nil
	}
	s, err := parseSite(resp.body)
	if resp.status != http.StatusOK || err != nil {
		t.violate("writer: reading the site back answered %d: %v", resp.status, err)
		return nil
	}
	if !s.sameMembers(e.site) {
		t.violate("writer: the site's contexts or members changed")
	}
	for _, c := range s.contexts {
		if c.Access != w.kinds[c.Family] {
			t.violate("writer: context %s serves %s, the writer set %s", c.Name, c.Access, w.kinds[c.Family])
		}
	}
	return s
}
