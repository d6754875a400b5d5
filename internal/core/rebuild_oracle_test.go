package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"repro/internal/museum"
	"repro/internal/navigation"
)

// oracleStylesheet is the presentation the rebuild oracle installs and
// clears.
const oracleStylesheet = `<s:stylesheet xmlns:s="urn:repro:style">
  <s:template match="Painting">
    <html><head><title><s:value-of select="title"/></title></head>
    <body><h2><s:value-of select="title"/> (<s:value-of select="year"/>)</h2><p><s:value-of select="technique"/></p></body></html>
  </s:template>
</s:stylesheet>`

// served is one response body with its validator.
type served struct {
	etag string
	body []byte
}

// rebuildOracle drives seeded mutations through an App, interleaved with
// cached reads, and after every mutation compares the App with its exact
// slow twin: a fresh NewApp over the same store and model, which exports
// every document and regenerates the whole linkbase.
type rebuildOracle struct {
	t        *testing.T
	rng      *rand.Rand
	app      *App
	families []string
	docs     map[string]served
	pages    map[pageKey]served
	// seen counts what the run exercised: mutation verdicts, context
	// lists that changed shape, and landmark entries that moved.
	seen map[string]int
}

func runRebuildOracle(t *testing.T, app *App, families []string, seed int64, steps int) map[string]int {
	o := &rebuildOracle{t: t, rng: rand.New(rand.NewSource(seed)), app: app, families: families,
		docs: map[string]served{}, pages: map[pageKey]served{}, seen: map[string]int{}}
	o.check("initial build")
	for i := 0; i < steps; i++ {
		o.read(6)
		before := o.app.Resolved()
		label := fmt.Sprintf("step %d: %s", i, o.mutate())
		after := o.app.Resolved()
		if !slices.EqualFunc(before.Contexts, after.Contexts, func(a, b *navigation.ResolvedContext) bool { return a.Name == b.Name }) {
			o.seen["reshape"]++
		}
		if landmarksMoved(before, after) {
			o.seen["landmark"]++
		}
		if ev := o.app.Events().Recent(1); len(ev) == 1 {
			o.seen[ev[0].Verdict]++
		}
		o.check(label)
	}
	return o.seen
}

// read serves random pages through the page cache.
func (o *rebuildOracle) read(n int) {
	contexts := o.app.Resolved().Contexts
	for i := 0; i < n; i++ {
		rc := contexts[o.rng.Intn(len(contexts))]
		node := navigation.HubID
		if len(rc.Members) > 0 && (!rc.Def.Access.HasHub() || o.rng.Intn(4) > 0) {
			node = rc.Members[o.rng.Intn(len(rc.Members))].ID()
		} else if !rc.Def.Access.HasHub() {
			continue
		}
		if _, err := o.app.RenderPageCached(rc.Name, node); err != nil {
			o.t.Fatalf("reading %s/%s: %v", rc.Name, node, err)
		}
	}
}

// mutate applies one random mutation and describes it.
func (o *rebuildOracle) mutate() string {
	paintings := o.app.Store().InstancesOf("Painting")
	id := paintings[o.rng.Intn(len(paintings))].ID
	patch := func(attr, value string) string {
		if err := o.app.Store().SetAttrs(id, map[string]string{attr: value}); err != nil {
			o.t.Fatal(err)
		}
		if _, err := o.app.InvalidateDocument(navigation.NodeHref(id)); err != nil {
			o.t.Fatal(err)
		}
		return fmt.Sprintf("%s %s=%q", id, attr, value)
	}
	switch k := o.rng.Intn(10); {
	case k < 2:
		return patch("technique", "Medium "+strconv.Itoa(o.rng.Intn(4)))
	case k < 4:
		return patch("title", "Work "+strconv.Itoa(o.rng.Intn(30)))
	case k < 6:
		return patch("year", strconv.Itoa(1850+o.rng.Intn(150)))
	case k < 9:
		family := o.families[o.rng.Intn(len(o.families))]
		as := o.access(family)
		if err := o.app.SetAccessStructure(family, as); err != nil {
			o.t.Fatal(err)
		}
		return fmt.Sprintf("%s -> %s", family, as.Kind())
	}
	if _, ok := o.app.StylesheetXML(); ok {
		o.app.SetStylesheet(nil)
		return "stylesheet cleared"
	}
	if err := o.app.SetStylesheetXML(oracleStylesheet); err != nil {
		o.t.Fatal(err)
	}
	return "stylesheet set"
}

// access draws a structure for family: one of the authored kinds, or an
// adaptive tour over a random plan for some of the family's contexts.
func (o *rebuildOracle) access(family string) navigation.AccessStructure {
	switch o.rng.Intn(5) {
	case 0:
		return navigation.Index{}
	case 1:
		return navigation.GuidedTour{Circular: o.rng.Intn(2) == 0}
	case 2:
		return navigation.IndexedGuidedTour{}
	case 3:
		return navigation.Menu{}
	}
	fallbacks := []navigation.AccessStructure{nil, navigation.Index{}, navigation.GuidedTour{}, navigation.IndexedGuidedTour{}}
	at := navigation.AdaptiveTour{Plans: map[string]navigation.TourPlan{},
		Fallback: fallbacks[o.rng.Intn(len(fallbacks))], Circular: o.rng.Intn(2) == 0}
	for _, rc := range o.app.Resolved().ContextsOf(family) {
		if o.rng.Intn(2) == 0 {
			continue
		}
		var plan navigation.TourPlan
		for _, i := range o.rng.Perm(len(rc.Members)) {
			plan.Order = append(plan.Order, rc.Members[i].ID())
		}
		if len(plan.Order) > 1 {
			plan.Landmarks = plan.Order[:1]
			plan.Dead = plan.Order[len(plan.Order)-1:]
		}
		at.Plans[rc.Name] = plan
	}
	return at
}

// check compares the App with a fresh NewApp over the same store, model
// and stylesheet: every document's served bytes, the contexts read back
// out of links.xml, and every cached page's body. A document's ETag must
// change exactly when its bytes change; a page's ETag must change
// whenever its bytes do.
func (o *rebuildOracle) check(label string) {
	o.t.Helper()
	fresh, err := NewApp(o.app.Store(), o.app.Model())
	if err != nil {
		o.t.Fatalf("%s: fresh app: %v", label, err)
	}
	if src, ok := o.app.StylesheetXML(); ok {
		if err := fresh.SetStylesheetXML(src); err != nil {
			o.t.Fatal(err)
		}
	}
	if got, want := o.app.DocumentCount(), fresh.DocumentCount(); got != want {
		o.t.Fatalf("%s: %d documents, fresh app has %d", label, got, want)
	}
	for uri := range fresh.repo {
		body, etag, _, err := o.app.DocBytes(uri)
		if err != nil {
			o.t.Fatalf("%s: %v", label, err)
		}
		if want, _, _, _ := fresh.DocBytes(uri); !bytes.Equal(body, want) {
			o.t.Fatalf("%s: %s serves\n%s\nfresh app serves\n%s", label, uri, body, want)
		}
		if prev, ok := o.docs[uri]; ok && (prev.etag == etag) != bytes.Equal(prev.body, body) {
			o.t.Fatalf("%s: %s ETag %s -> %s, bytes changed: %v", label, uri, prev.etag, etag, !bytes.Equal(prev.body, body))
		}
		o.docs[uri] = served{etag, body}
	}
	if lb, _, _, _ := o.app.DocBytes(linksURI); !bytes.Equal(o.app.linkbase.AppendIndented(nil), lb) {
		o.t.Fatalf("%s: the linkbase tree and its served bytes differ", label)
	}
	if !reflect.DeepEqual(o.app.lbContexts, fresh.lbContexts) {
		o.t.Fatalf("%s: contexts read back out of links.xml differ from the fresh app's", label)
	}
	o.checkResolved(label, fresh.Resolved())
	for _, p := range cachedPages(o.app) {
		want, err := fresh.RenderPage(p.Context, p.NodeID)
		if err != nil {
			o.t.Fatalf("%s: cached page %s/%s: fresh app: %v", label, p.Context, p.NodeID, err)
		}
		if !bytes.Equal(p.Body, want.Body) {
			o.t.Fatalf("%s: cached page %s/%s is stale:\n%s\nfresh:\n%s", label, p.Context, p.NodeID, p.Body, want.Body)
		}
		k := pageKey{p.Context, p.NodeID}
		if prev, ok := o.pages[k]; ok && prev.etag == p.ETag && !bytes.Equal(prev.body, p.Body) {
			o.t.Fatalf("%s: page %s/%s changed bytes under ETag %s", label, p.Context, p.NodeID, p.ETag)
		}
		o.pages[k] = served{p.ETag, p.Body}
	}
}

// checkResolved compares the App's resolved model, whose unchanged
// contexts carry over from earlier rebuilds, with a fresh resolution:
// the contexts in order, their members, entries, access kinds and every
// traversal's edges, labels included, and the landmarks. Each context
// must also be the one its name looks up.
func (o *rebuildOracle) checkResolved(label string, fresh *navigation.ResolvedModel) {
	o.t.Helper()
	got := o.app.Resolved()
	names := func(rcs []*navigation.ResolvedContext) []string {
		out := make([]string, len(rcs))
		for i, rc := range rcs {
			out[i] = rc.Name
		}
		return out
	}
	members := func(rc *navigation.ResolvedContext) []string {
		out := make([]string, len(rc.Members))
		for i, m := range rc.Members {
			out[i] = m.ID()
		}
		return out
	}
	if g, w := names(got.Contexts), names(fresh.Contexts); !slices.Equal(g, w) {
		o.t.Fatalf("%s: contexts %v, fresh resolution has %v", label, g, w)
	}
	if g, w := names(got.Landmarks), names(fresh.Landmarks); !slices.Equal(g, w) {
		o.t.Fatalf("%s: landmarks %v, fresh resolution has %v", label, g, w)
	}
	for i, lm := range got.Landmarks {
		if lm != got.Context(lm.Name) || lm.EntryNode() != fresh.Landmarks[i].EntryNode() {
			o.t.Fatalf("%s: landmark %s is not its context or enters elsewhere", label, lm.Name)
		}
	}
	for i, rc := range got.Contexts {
		want := fresh.Contexts[i]
		if got.Context(rc.Name) != rc {
			o.t.Fatalf("%s: Context(%q) is not the context listed", label, rc.Name)
		}
		ids := members(want)
		if g := members(rc); !slices.Equal(g, ids) {
			o.t.Fatalf("%s: %s members %v, fresh resolution has %v", label, rc.Name, g, ids)
		}
		if rc.EntryNode() != want.EntryNode() || rc.Def.Access.Kind() != want.Def.Access.Kind() {
			o.t.Fatalf("%s: %s enters at %s (%s), fresh resolution at %s (%s)", label, rc.Name,
				rc.EntryNode(), rc.Def.Access.Kind(), want.EntryNode(), want.Def.Access.Kind())
		}
		for _, id := range append(ids, navigation.HubID) {
			if g, w := rc.OutEdges(id), want.OutEdges(id); !slices.Equal(g, w) {
				o.t.Fatalf("%s: %s edges from %s:\n%v\nfresh resolution:\n%v", label, rc.Name, id, g, w)
			}
		}
	}
}

// cachedPages lists the page cache's entries.
func cachedPages(app *App) []*Page {
	var out []*Page
	for i := range app.cache.shards {
		sh := &app.cache.shards[i]
		sh.mu.Lock()
		for _, p := range sh.pages {
			out = append(out, p)
		}
		sh.mu.Unlock()
	}
	return out
}

// TestRebuildMatchesFreshAppMuseum runs the rebuild oracle on the 50/20/8
// synthetic museum, the benchmark's site.
func TestRebuildMatchesFreshAppMuseum(t *testing.T) {
	steps := 80
	if testing.Short() {
		steps = 8
	}
	t.Log(runRebuildOracle(t, benchMuseum(t), []string{"ByAuthor", "ByMovement"}, 1, steps))
}

// TestRebuildMatchesFreshAppReshaping runs the rebuild oracle on a small
// museum whose model adds a grouped family filtered by year, so year
// edits make contexts appear and vanish, shown as a gallery wall so its
// hubs embed member documents, and an ungrouped landmark ordered by
// title, whose entry moves with title edits and hub-dropping swaps.
func TestRebuildMatchesFreshAppReshaping(t *testing.T) {
	steps := 600
	if testing.Short() {
		steps = 60
	}
	store := museum.Synthetic(museum.SyntheticSpec{Painters: 6, PaintingsPerPainter: 2, Movements: 3, Seed: 3})
	m := museum.Model(navigation.IndexedGuidedTour{})
	m.MustAddContext(&navigation.ContextDef{
		Name: "Recent", NodeClass: "PaintingNode", GroupBy: "paints",
		OrderBy: "year", Where: "year >= 1960", Access: navigation.Index{}, Show: "embed",
	})
	m.MustAddContext(&navigation.ContextDef{
		Name: "AllPaintings", NodeClass: "PaintingNode", OrderBy: "title", Access: navigation.GuidedTour{},
	})
	m.MustAddLandmark("AllPaintings")
	app, err := NewApp(store, m)
	if err != nil {
		t.Fatal(err)
	}
	seen := runRebuildOracle(t, app, []string{"ByAuthor", "ByMovement", "Recent", "AllPaintings"}, 2, steps)
	for _, what := range []string{"reshape", "landmark", verdictFull, verdictLocal, verdictNone} {
		if seen[what] == 0 {
			t.Errorf("the sequence exercised no %q mutation: %v", what, seen)
		}
	}
	t.Log(seen)
}
