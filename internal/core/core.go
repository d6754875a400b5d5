// Package core implements the paper's primary contribution: separating the
// navigational aspect of a web application from its data and presentation,
// and weaving the three back together mechanically (Figure 6).
//
// The pieces, each authored independently:
//
//   - Data: conceptual instances exported to per-node XML documents
//     (picasso.xml, avignon.xml — Figures 7–8), containing no links.
//   - Navigation: the navigational model, serialized to an XLink linkbase
//     (links.xml — Figure 9). All link structure lives here.
//   - Presentation: a template stylesheet producing each node's base page,
//     oblivious to navigation.
//
// An App exposes the page-production pipeline as join points
// (KindPageRender, KindSiteWeave) and installs a navigation aspect whose
// around advice reads the linkbase and injects the access-structure markup
// into each page. Changing the access structure — the paper's §5
// requirements change that forced edits to every page of the tangled
// implementation (Figures 3–4) — becomes a one-line re-declaration here:
// SetAccessStructure re-resolves, regenerates links.xml and re-weaves.
//
// Each response is woven or served from one immutable generation of
// the App, so it comes from exactly one triple of data, linkbase and
// presentation by construction; mutations publish the next generation
// (see Reader and App).
//
// The App holds links.xml only as its served bytes, with no tree: the
// weaver reads the contexts as that markup reads back. One pass writes
// both from the derived contexts (navigation.NewLinkbaseText): the
// bytes the linkbase document serializes to, and the contexts
// ParseLinkbase would read out of it, with no document built or parsed;
// a differential test and a fuzz target hold the pass equal to that
// tree round trip, and the rebuild oracle parses the served bytes. The
// pass runs per context: a mutation writes only the extended links
// whose derivation it changed, splices them into a new links.xml
// between the unchanged contexts' bytes, and re-exports only the data
// documents it edited. A structure swap re-derives its family's
// contexts and no document; a caption edit re-exports one document and
// leaves links.xml as it was; a title edit re-exports its document and
// rewrites the contexts that list the title.
package core

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aspect"
	"repro/internal/conceptual"
	"repro/internal/navigation"
	"repro/internal/obs"
	"repro/internal/presentation"
	"repro/internal/xlink"
	"repro/internal/xmldom"
)

// Join point kinds exposed by the weaving pipeline.
const (
	// KindSiteWeave wraps the whole static weave of a site.
	KindSiteWeave = "site.weave"
	// KindPageRender wraps the production of one page; the navigation
	// aspect advises it. Attrs: context, access, node (or "_index"),
	// class.
	KindPageRender = "page.render"
)

// Reader is the read plane of an App. It holds neither the conceptual
// store nor a way to publish, so code handed a Reader (the serving
// routes) cannot mutate the application, and the compiler checks it. It
// is safe for concurrent use: everything a response is woven or served
// from is one immutable generation behind one atomic pointer, which a
// reader loads once and uses to the end, so no reader waits for a
// mutation. A page reads its data from its generation's documents, never
// from the live store.
type Reader struct {
	weaver *aspect.Weaver
	// lineage holds the resolved models: every rebuild resolves into it,
	// and each generation's model is published there with it.
	lineage *navigation.Lineage
	// events traces recent mutations: duration, diff verdict and
	// invalidation blast radius per model change (see Events).
	events *obs.EventRing
	gen    atomic.Pointer[generation]
}

// App is a woven web application: one conceptual store, one navigational
// model, optional custom presentation, and an aspect weaver. It is its
// Reader plus the mutations (SetAccessStructure, SetStylesheet,
// InvalidateDocument), which any number of goroutines may run while
// others render and serve. Mutations serialize on writeMu, build the
// next generation beside the current one, sharing every part they did
// not change, and publish it with one store.
type App struct {
	*Reader
	store   *conceptual.Store
	writeMu sync.Mutex
}

// generation is everything a response is woven or served from, never
// changed once published but for its page cache filling.
type generation struct {
	// num is the generation ETags carry. It advances with every
	// mutation that drops a cached page or changes a document.
	num      uint64
	model    *navigation.Model
	resolved *navigation.ResolvedModel
	links    *linkbase
	// docs holds every repository document by name: the data documents
	// and links.xml, whose body is links's.
	docs       map[string]*document
	stylesheet *presentation.Stylesheet
	// stylesheetSrc is the XML source of the stylesheet when it was
	// installed through SetStylesheetXML, or empty.
	stylesheetSrc string
	pages         *pageCache
}

// document is one repository document as it is served: its tree (nil
// for links.xml, which is held as bytes alone), and its serialized body
// with the body's strong validator and Content-Length, precomputed so
// the serve path neither serializes, hashes nor formats.
type document struct {
	tree *xmldom.Document
	body []byte
	etag string
	clen string
}

// linkbase is links.xml as the App holds it, one value that a rebuild
// builds beside the current one and installs whole, never editing it:
// the served bytes with where each context's extended link begins in
// them (the links.xml document's body is the same bytes), and its
// contexts as the weaver reads them, as the markup reads back, in
// linkbase order and by name. Each context is held once: the next
// rebuild compares its derivation with the read-back context, except
// where the markup could not carry a derivation exactly (xmldom writes
// each byte of invalid UTF-8 as U+FFFD), which is then kept in the
// read-back one's place in the order, so the comparison never takes a
// change for none. No tree of links.xml is built to make it, and none
// stays resident: Linkbase and Repository build one on demand.
type linkbase struct {
	text     navigation.LinkbaseText
	ordered  []*navigation.LinkbaseContext
	contexts map[string]*navigation.LinkbaseContext
}

// linksURI is the linkbase's name in the repository.
const linksURI = "links.xml"

// NewApp assembles an application: it resolves the navigational model,
// exports the data documents, generates the linkbase and installs the
// navigation aspect. The App never changes model; a structure swap
// publishes a copy.
func NewApp(store *conceptual.Store, model *navigation.Model) (*App, error) {
	app := &App{
		Reader: &Reader{
			weaver:  aspect.NewWeaver(),
			lineage: navigation.NewLineage(),
			events:  obs.NewEventRing(eventRingCapacity),
		},
		store: store,
	}
	empty := &generation{docs: map[string]*document{}, pages: newPageCache()}
	g, _, _, err := app.rebuild(empty, model, conceptual.ExportAll(store))
	if err != nil {
		return nil, err
	}
	app.publish(g)
	app.weaver.Use(NavigationAspect())
	return app, nil
}

// publish makes g the generation every reader loads from now on, and
// its resolved model the newest of the lineage, which sessions resolve
// against.
func (app *App) publish(g *generation) {
	app.gen.Store(g)
	g.resolved.Publish()
}

// mutate runs one mutation: holding writeMu, it builds the generation
// that follows the current one with build, publishes it and records the
// mutation. A build that fails publishes nothing, and the App stays on
// the current generation. It returns how many cached pages the mutation
// dropped.
func (app *App) mutate(kind, target string, build func(cur *generation) (*generation, int, string, error)) (int, error) {
	start := time.Now()
	app.writeMu.Lock()
	defer app.writeMu.Unlock()
	next, dropped, verdict, err := build(app.gen.Load())
	if err != nil {
		return 0, err
	}
	app.publish(next)
	app.recordMutation(kind, target, start, dropped, verdict)
	return dropped, nil
}

// rebuild builds the generation that follows cur once model replaces
// cur's and docs, the data documents a mutation re-exported, replace
// cur's — every one from NewApp, the edited one from InvalidateDocument,
// none from a structure swap. It re-resolves the model, compares every
// freshly derived context with the one cur's linkbase holds, carries
// each unchanged one over as cur's resolved object, makes the next
// links.xml by splicing in the changed contexts' bytes, and shares with
// cur every document and cached page the mutation did not change. cur
// stays as it was.
// It returns the next generation, how many of cur's cached pages it
// dropped and the diff's verdict (verdictFull, verdictLocal or
// verdictNone) — the blast-radius classification the mutation trace
// records.
//
// Invalidation is dependency-aware: the per-context comparison and the
// re-serialized documents' bytes decide which cached pages the mutation
// actually touched, and only those are left behind — the paper's
// separation applied to the cache. A change that stays inside one
// context family (the §5 access-structure swap) costs that family's
// pages, not the site's. A new member roll or title leaks into other
// contexts' pages (their "Also in" links and embeds name it), and a
// moved landmark entry into every page's landmark bar, so those start
// the next generation with an empty cache.
func (app *App) rebuild(cur *generation, model *navigation.Model, docs xlink.MapRepository) (*generation, int, string, error) {
	start := time.Now()
	rm, err := app.lineage.Resolve(model, app.store)
	if err != nil {
		return nil, 0, "", fmt.Errorf("core: resolving navigation model: %w", err)
	}
	contexts := navigation.LinkbaseContexts(rm)
	prev := cur.links
	// A context list of a new shape — the first build, or a context
	// that appeared, vanished or moved — regenerates the whole linkbase.
	reshaped := prev == nil || !slices.EqualFunc(prev.ordered, contexts,
		func(a, b *navigation.LinkbaseContext) bool { return a.Name == b.Name })
	full := reshaped || landmarksMoved(cur.resolved, rm)
	var changed []int
	changedCtxs := map[string]bool{}
	if !reshaped {
		for i, c := range contexts {
			members, structure := compareContexts(prev.ordered[i], c)
			if !members {
				full = true
			}
			if !structure {
				changedCtxs[c.Name] = true
			}
			if !members || !structure {
				changed = append(changed, i)
			} else {
				// An unchanged context carries over as the previous
				// model's object, with the OutEdges index and position
				// map it built: a superseded model costs only what
				// changed.
				rm.Adopt(i, cur.resolved.Contexts[i], c.Edges)
			}
		}
	}
	// The next links.xml is built beside the current one; with no
	// context changed there is none.
	var links *linkbase
	switch {
	case reshaped:
		links, err = link(contexts)
	case len(changed) > 0:
		links, err = prev.relink(contexts, changed)
	}
	if err != nil {
		return nil, 0, "", fmt.Errorf("core: reading generated linkbase: %w", err)
	}
	next := &generation{num: cur.num, model: model, resolved: rm, links: prev, docs: maps.Clone(cur.docs),
		stylesheet: cur.stylesheet, stylesheetSrc: cur.stylesheetSrc}

	// Serialize each handed document once, at mutation time: the bytes
	// are what the server hands out and the snapshot export writes (no
	// per-request serialization), and comparing them with cur's bodies
	// reveals which changed. Each is appended into one scratch buffer,
	// sized from the largest body among them and reused. links.xml
	// comes serialized already.
	largest := 0
	for uri := range docs {
		if d := cur.docs[uri]; d != nil {
			largest = max(largest, len(d.body))
		}
	}
	scratch := make([]byte, 0, largest)
	changedDocs := map[string]bool{}
	for uri, tree := range docs {
		scratch = tree.AppendIndented(scratch[:0])
		d := &document{tree: tree}
		if old := cur.docs[uri]; old != nil && bytes.Equal(old.body, scratch) {
			// The same bytes keep their body, and with it their ETag.
			d.body, d.etag, d.clen = old.body, old.etag, old.clen
		} else {
			d.body = bytes.Clone(scratch)
			changedDocs[uri] = true
		}
		next.docs[uri] = d
	}
	if links != nil {
		if prev != nil && bytes.Equal(links.text.Bytes(), prev.text.Bytes()) {
			links.text = prev.text
		} else {
			next.docs[linksURI] = &document{body: links.text.Bytes()}
			changedDocs[linksURI] = true
		}
		next.links = links
	}

	var drop func(*Page) bool
	verdict := verdictNone
	switch {
	case full:
		drop = func(*Page) bool { return true }
		verdict = verdictFull
	case len(changedCtxs) > 0 || len(changedDocs) > 0:
		drop = func(p *Page) bool {
			if changedCtxs[p.deps.context] {
				return true
			}
			for _, d := range p.deps.docs {
				if changedDocs[d] {
					return true
				}
			}
			return false
		}
		verdict = verdictLocal
	}
	var dropped int
	next.pages, dropped = cur.pages.carry(drop)
	if verdict != verdictNone {
		next.num++
	}
	// Unchanged documents keep their ETags (and cached pages their
	// entries): a rebuild that changes nothing observable un-validates
	// nothing.
	for uri := range changedDocs {
		d := next.docs[uri]
		d.etag, d.clen = strongETag(next.num, d.body), strconv.Itoa(len(d.body))
	}
	rebuildDuration.Observe(time.Since(start))
	rebuildsByVerdict[verdict].Inc()
	return next, dropped, verdict, nil
}

// landmarksMoved reports whether the landmark bar differs between two
// resolutions: another landmark list, or a landmark entering elsewhere.
func landmarksMoved(old, cur *navigation.ResolvedModel) bool {
	if len(old.Landmarks) != len(cur.Landmarks) {
		return true
	}
	for i, lm := range cur.Landmarks {
		if o := old.Landmarks[i]; o.Name != lm.Name || o.EntryNode() != lm.EntryNode() {
			return true
		}
	}
	return false
}

// compareContexts compares a context as the linkbase holds it with a
// fresh derivation: whether it has the same members with the same
// titles, and the same structure.
func compareContexts(held, fresh *navigation.LinkbaseContext) (members, structure bool) {
	members = slices.Equal(held.Order, fresh.Order) && maps.Equal(held.NodeTitles, fresh.NodeTitles)
	structure = held.AccessKind == fresh.AccessKind && held.HasHub == fresh.HasHub && slices.Equal(held.Edges, fresh.Edges)
	return members, structure
}

// kept returns what the linkbase keeps in its order for a context
// derived as derived that the markup reads back as parsed: the parsed
// context when it carries the derivation exactly, which it does unless
// the markup could not.
func kept(parsed, derived *navigation.LinkbaseContext) *navigation.LinkbaseContext {
	if members, structure := compareContexts(parsed, derived); members && structure && parsed.Name == derived.Name {
		return parsed
	}
	return derived
}

// link writes the whole linkbase of contexts, with the contexts as its
// markup reads back.
func link(contexts []*navigation.LinkbaseContext) (*linkbase, error) {
	text, parsed, err := navigation.NewLinkbaseText(contexts)
	if err != nil {
		return nil, err
	}
	if len(parsed) != len(contexts) {
		return nil, fmt.Errorf("core: linkbase of %d contexts read back as %d", len(contexts), len(parsed))
	}
	lb := &linkbase{text: text, ordered: make([]*navigation.LinkbaseContext, len(parsed)),
		contexts: make(map[string]*navigation.LinkbaseContext, len(parsed))}
	for i, c := range parsed {
		lb.ordered[i] = kept(c, contexts[i])
		lb.contexts[c.Name] = c
	}
	return lb, nil
}

// relink makes the linkbase that follows lb when the contexts at the
// changed positions change. Each is written alone, with the context its
// markup reads back, so the weaver still reads navigation as linkbase
// markup carries it and never out of the model, and its bytes are
// spliced between the unchanged contexts' bytes, which carry over with
// their read-back contexts. Skipping the other contexts rests on an
// extended link's bytes depending on its context alone.
func (lb *linkbase) relink(contexts []*navigation.LinkbaseContext, changed []int) (*linkbase, error) {
	text, parsed, err := lb.text.Splice(contexts, changed)
	if err != nil {
		return nil, err
	}
	next := &linkbase{text: text, ordered: slices.Clone(lb.ordered), contexts: maps.Clone(lb.contexts)}
	for k, i := range changed {
		next.ordered[i] = kept(parsed[k], contexts[i])
		next.contexts[parsed[k].Name] = parsed[k]
	}
	return next, nil
}

// Store returns the conceptual store.
func (app *App) Store() *conceptual.Store { return app.store }

// Model returns the navigational model the App serves. A model the App
// has published is never changed: a structure swap publishes a copy.
func (r *Reader) Model() *navigation.Model { return r.gen.Load().model }

// Resolved returns the resolved navigation model: the newest one a
// mutation has published. It never waits for a mutation in progress; it
// returns the model that mutation replaces until the mutation publishes.
func (r *Reader) Resolved() *navigation.ResolvedModel { return r.lineage.Newest() }

// Weaver returns the aspect weaver, so callers can register further
// aspects (logging, access control) beside navigation.
func (app *App) Weaver() *aspect.Weaver { return app.weaver }

// Linkbase returns the generated links.xml document. The App holds
// links.xml as bytes, not as a tree, so each call builds a fresh tree
// from the contexts it holds: the caller may change it freely.
func (r *Reader) Linkbase() *xmldom.Document {
	return navigation.BuildLinkbase(r.gen.Load().links.ordered)
}

// Repository returns a deep copy of the data-document repository (node
// XML files plus links.xml, built afresh as Linkbase builds it), the
// input an XLink-aware agent works from: a snapshot no later mutation
// reaches. DocumentCount counts the repository without copying it.
func (r *Reader) Repository() xlink.MapRepository {
	g := r.gen.Load()
	repo := make(xlink.MapRepository, len(g.docs))
	for uri, d := range g.docs {
		if d.tree != nil {
			repo[uri] = d.tree.Clone()
		}
	}
	repo[linksURI] = navigation.BuildLinkbase(g.links.ordered)
	return repo
}

// DocumentCount returns how many documents the repository holds: the
// data documents and links.xml.
func (r *Reader) DocumentCount() int { return len(r.gen.Load().docs) }

// SetStylesheet installs a custom presentation stylesheet for node pages.
// It must transform a node data document (e.g. Figure 7's painter XML)
// into a single html element. A nil stylesheet restores the built-in
// presentation. Only the cached pages woven through the stylesheet slot
// — member pages — are invalidated; hub shells and the serialized
// documents never consult it and stay cached.
func (app *App) SetStylesheet(ss *presentation.Stylesheet) { app.installStylesheet(ss, "") }

// SetStylesheetXML parses the XML form of a presentation stylesheet and
// installs it, retaining the source text so the control plane can serve
// the exact artifact back (StylesheetXML). A blank source restores the
// built-in presentation. The parse happens before any state moves —
// validate-then-mutate: a malformed stylesheet changes nothing.
func (app *App) SetStylesheetXML(src string) error {
	if strings.TrimSpace(src) == "" {
		app.SetStylesheet(nil)
		return nil
	}
	ss, err := presentation.ParseStylesheetString(src)
	if err != nil {
		return err
	}
	app.installStylesheet(ss, src)
	return nil
}

// installStylesheet publishes a generation presenting member pages
// through ss, whose XML source is src ("" when it has none).
func (app *App) installStylesheet(ss *presentation.Stylesheet, src string) {
	_, _ = app.mutate("stylesheet", "stylesheet", func(cur *generation) (*generation, int, string, error) {
		next := *cur
		next.num++
		next.stylesheet, next.stylesheetSrc = ss, src
		var dropped int
		next.pages, dropped = cur.pages.carry(func(p *Page) bool { return p.deps.stylesheet })
		return &next, dropped, verdictLocal, nil
	})
}

// StylesheetXML returns the XML source of the stylesheet installed
// through SetStylesheetXML, and whether one is in effect. The built-in
// presentation and programmatically installed stylesheets have no XML
// source, so they report false.
func (r *Reader) StylesheetXML() (string, bool) {
	src := r.gen.Load().stylesheetSrc
	return src, src != ""
}

// SpecText renders the current navigational model as its declaration
// artifact (navigation.SpecText).
func (r *Reader) SpecText() string { return navigation.SpecText(r.Model()) }

// ModelView is one consistent read of everything the control plane's
// model endpoint serves: the declaration artifact, each family's access
// structure, the resolved model and the cache generation, all read from
// one generation — a concurrent swap yields either the before or the
// after view, never a mix.
type ModelView struct {
	SpecText   string
	Access     map[string]navigation.AccessStructure
	Resolved   *navigation.ResolvedModel
	Generation uint64
}

// View snapshots a ModelView.
func (r *Reader) View() ModelView {
	g := r.gen.Load()
	access := make(map[string]navigation.AccessStructure, len(g.model.Contexts()))
	for _, c := range g.model.Contexts() {
		access[c.Name] = c.Access
	}
	return ModelView{
		SpecText:   navigation.SpecText(g.model),
		Access:     access,
		Resolved:   g.resolved,
		Generation: g.num,
	}
}

// ErrUnknownFamily reports a structure swap naming a context family the
// model does not declare; callers (the control plane) test for it with
// errors.Is to answer 404 rather than 500.
var ErrUnknownFamily = errors.New("unknown context family")

// SetAccessStructure swaps the access structure of one context family and
// re-derives the linkbase — the paper's requirements change (Index to
// Indexed Guided Tour), reduced from editing every page to one call.
// The generation it publishes caches none of the family's pages, so the
// paper's motivating change-cost scenario stays correct under cached
// serving.
func (app *App) SetAccessStructure(family string, as navigation.AccessStructure) error {
	_, err := app.SetAccessStructures(map[string]navigation.AccessStructure{family: as})
	return err
}

// SetAccessStructures swaps the access structures of several context
// families atomically, with one re-derivation and one invalidation diff
// for the whole batch — what the adaptation loop wants when a derive
// cycle updates every family at once, where per-family calls would cost
// a full rebuild each. All families are validated before any is
// swapped; an empty map is a no-op. It returns how many cached pages
// the batch invalidated — the blast radius the dependency-aware diff
// decided on, which the control plane reports back to the operator.
func (app *App) SetAccessStructures(swaps map[string]navigation.AccessStructure) (int, error) {
	if len(swaps) == 0 {
		return 0, nil
	}
	families := make([]string, 0, len(swaps))
	for family := range swaps {
		families = append(families, family)
	}
	sort.Strings(families)
	return app.mutate("structure-swap", strings.Join(families, ","), func(cur *generation) (*generation, int, string, error) {
		for _, family := range families {
			if !slices.ContainsFunc(cur.model.Contexts(), func(c *navigation.ContextDef) bool { return c.Name == family }) {
				return nil, 0, "", fmt.Errorf("core: %w %q", ErrUnknownFamily, family)
			}
		}
		return app.rebuild(cur, cur.model.WithAccess(swaps), nil)
	})
}

// InvalidateDocument re-derives the model after an edit to the data
// behind the named document (conceptual.Store.SetAttr) and drops
// exactly the cached pages the edit touched, returning how many. The
// uri is the document's repository name (navigation.NodeHref of the
// node, e.g. "guitar.xml"); a name that is neither links.xml nor the
// document of a store instance is an error, reported before anything is
// re-derived. Only the named document is re-exported; invalidating
// links.xml re-derives navigation alone. Pages are woven from the
// exported documents, so an edit reaches pages once its document is
// invalidated.
//
// The rebuild diff — not the caller — decides the blast radius. A
// caption-only edit changes just the document's bytes, so only the
// pages woven from it (in every context containing its node) drop and
// every other validator keeps serving 304s. An edit that reaches the
// navigational surface — a title that anchors and the linkbase
// display, an attribute a tour is ordered by — changes the contexts
// derived from the model and invalidates as widely as it must. Getting
// that radius right costs a re-derivation at mutation time; the request
// path stays untouched either way.
func (app *App) InvalidateDocument(uri string) (int, error) {
	var inst *conceptual.Instance
	if uri != linksURI {
		id, ok := strings.CutSuffix(uri, ".xml")
		if inst = app.store.Get(id); !ok || inst == nil {
			return 0, fmt.Errorf("core: no document %q", uri)
		}
	}
	return app.mutate("document", uri, func(cur *generation) (*generation, int, string, error) {
		docs := xlink.MapRepository{}
		if inst != nil {
			docs[uri] = conceptual.ExportInstance(app.store, inst)
		}
		return app.rebuild(cur, cur.model, docs)
	})
}

// DocBytes returns the serialized form of repository document uri with
// its precomputed strong validator and Content-Length. The bytes are
// produced once, at mutation time (rebuild serializes each document it
// re-derives), so the request path neither serializes, hashes nor
// formats. The returned slice is shared: callers must not modify it.
//
//repro:hotpath
func (r *Reader) DocBytes(uri string) (body []byte, etag, contentLength string, err error) {
	if d := r.gen.Load().docs[uri]; d != nil {
		return d.body, d.etag, d.clen, nil
	}
	//repro:allow(miss path: unknown document, request fails with 404)
	return nil, "", "", fmt.Errorf("core: no document %q", uri)
}

// strongETag builds the validator for a body serialized under gen:
// "g<generation>-<hash>". Either a model change (new generation for
// changed content) or a content change produces a new tag, while
// untouched content keeps validating across unrelated mutations.
func strongETag(gen uint64, body []byte) string {
	h := fnv.New64a()
	_, _ = h.Write(body)
	return fmt.Sprintf(`"g%d-%x"`, gen, h.Sum64())
}

// CachedPages reports how many woven pages the current generation's
// cache holds (diagnostics and tests).
func (r *Reader) CachedPages() int { return r.gen.Load().pages.size() }

// CacheGeneration returns the current generation's number. Every
// mutation that drops a cached page or changes a document advances it,
// so it doubles as the HTTP validator: the server folds it into ETags,
// making every cached response self-invalidate on the next such
// mutation.
func (r *Reader) CacheGeneration() uint64 { return r.gen.Load().num }

// PagePath returns the site-relative path of a page: the hub page of a
// context is <context>/index.html, a member page <context>/<node>.html,
// with ':' in context names becoming a directory separator.
func PagePath(contextName, nodeID string) string {
	dir := strings.ReplaceAll(contextName, ":", "/")
	if nodeID == navigation.HubID || nodeID == "" {
		return dir + "/index.html"
	}
	return dir + "/" + nodeID + ".html"
}

// href renders a root-relative link target for an edge destination.
func href(contextName, nodeID string) string {
	return "/" + PagePath(contextName, nodeID)
}
