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
	"strings"
	"sync"
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

// App is a woven web application: one conceptual store, one navigational
// model, optional custom presentation, and an aspect weaver.
//
// An App is safe for concurrent use: any number of goroutines may render
// pages (RenderPage, RenderPageCached, WeaveSite) while others mutate the
// model (SetAccessStructure, SetStylesheet). Renders see either the old
// or the new model, never a mix, and the page cache is invalidated
// atomically with every mutation.
type App struct {
	store *conceptual.Store
	model *navigation.Model

	weaver *aspect.Weaver
	cache  *pageCache
	docs   *docCache
	// lineage holds the resolved model: every rebuild resolves into it
	// and publishes there last, and Resolved reads it without a lock.
	lineage *navigation.Lineage
	// events traces recent mutations: duration, diff verdict and
	// invalidation blast radius per model change (see Events).
	events *obs.EventRing

	// mu guards the model-derived state below: renders hold the read
	// lock for the whole pipeline; rebuilds hold the write lock.
	mu         sync.RWMutex
	stylesheet *presentation.Stylesheet
	// stylesheetSrc is the XML source of the stylesheet when it was
	// installed through SetStylesheetXML (the control plane's PUT), so
	// GET /api/v1/stylesheet can serve back the exact artifact. Empty
	// when the built-in presentation or a programmatic stylesheet is in
	// effect.
	stylesheetSrc string
	// repo holds the data documents, by repository name; links.xml is
	// not among them.
	repo xlink.MapRepository
	// links is links.xml, replaced whole by every rebuild that changes
	// it.
	links *linkbase
}

// linkbase is links.xml as the App holds it, one value that a rebuild
// builds beside the current one and installs whole, never editing it:
// the served bytes with where each context's extended link begins in
// them (the doc cache's links.xml entry is the same body), and its
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
// navigation aspect.
func NewApp(store *conceptual.Store, model *navigation.Model) (*App, error) {
	app := &App{
		store:   store,
		model:   model,
		weaver:  aspect.NewWeaver(),
		cache:   newPageCache(),
		docs:    newDocCache(),
		lineage: navigation.NewLineage(),
		events:  obs.NewEventRing(eventRingCapacity),
		repo:    xlink.MapRepository{},
	}
	if _, _, err := app.rebuild(conceptual.ExportAll(store)); err != nil {
		return nil, err
	}
	app.weaver.Use(NavigationAspect(app))
	return app, nil
}

// rebuild re-derives what a mutation can have changed: it re-resolves
// the model, compares every freshly derived context with the one the
// previous rebuild derived, keeps the previous model's object for each
// unchanged one, makes the next links.xml by splicing in the changed
// contexts' bytes, and installs docs, the data documents the mutation
// re-exported — every one from NewApp, the edited one from
// InvalidateDocument, none from a structure swap. The new model is
// published last, once the cache and documents agree with it. Callers
// other than NewApp must hold app.mu for writing; rebuild takes
// ownership of docs.
// It returns how many cached pages were dropped and the diff's verdict
// (verdictFull, verdictLocal or verdictNone) — the blast-radius
// classification the mutation trace records.
//
// Invalidation is dependency-aware: the per-context comparison and the
// re-serialized documents' bytes decide which cached pages the mutation
// actually touched, and only those drop — the paper's separation
// applied to the cache. A change that stays inside one context family
// (the §5 access-structure swap) costs that family's pages, not the
// site's. A new member roll or title leaks into other contexts' pages
// (their "Also in" links and embeds name it), and a moved landmark entry
// into every page's landmark bar, so those drop the whole cache.
func (app *App) rebuild(docs xlink.MapRepository) (int, string, error) {
	start := time.Now()
	rm, err := app.lineage.Resolve(app.model, app.store)
	if err != nil {
		return 0, "", fmt.Errorf("core: resolving navigation model: %w", err)
	}
	contexts := navigation.LinkbaseContexts(rm)
	prev, prevRM := app.links, app.lineage.Newest()
	// A context list of a new shape — the first build, or a context
	// that appeared, vanished or moved — regenerates the whole linkbase.
	reshaped := prev == nil || !slices.EqualFunc(prev.ordered, contexts,
		func(a, b *navigation.LinkbaseContext) bool { return a.Name == b.Name })
	full := reshaped || landmarksMoved(prevRM, rm)
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
				rm.Adopt(i, prevRM.Contexts[i], c.Edges)
			}
		}
	}
	// The next links.xml is built beside the current one, which a
	// failure leaves as it was; with no context changed there is none.
	var next *linkbase
	switch {
	case reshaped:
		next, err = link(contexts)
	case len(changed) > 0:
		next, err = prev.relink(contexts, changed)
	}
	if err != nil {
		return 0, "", fmt.Errorf("core: reading generated linkbase: %w", err)
	}
	for uri, doc := range docs {
		app.repo[uri] = doc
	}

	// Serialize each handed document once, at mutation time: the bytes
	// seed the serialized-document cache the server hands out and the
	// snapshot export writes (no per-request serialization), and
	// comparing them with the cached bodies reveals which changed.
	// links.xml comes serialized already.
	changedDocs := app.docs.serialize(docs)
	if next != nil {
		if prev != nil && bytes.Equal(next.text.Bytes(), prev.text.Bytes()) {
			// The same bytes keep the served body, and with it its ETag.
			next.text = prev.text
		} else {
			changedDocs[linksURI] = next.text.Bytes()
		}
		app.links = next
	}

	// The generation advances with any invalidation, so weaves in flight
	// across the mutation are discarded rather than cached against the
	// new model.
	dropped, verdict := 0, verdictNone
	switch {
	case full:
		dropped = app.cache.invalidate()
		verdict = verdictFull
	case len(changedCtxs) > 0 || len(changedDocs) > 0:
		dropped = app.cache.invalidateMatching(func(p *Page) bool {
			if changedCtxs[p.deps.context] {
				return true
			}
			for _, d := range p.deps.docs {
				if changedDocs[d] != nil {
					return true
				}
			}
			return false
		})
		verdict = verdictLocal
	}
	// Unchanged documents keep their ETags (and cached pages their
	// entries): a rebuild that changes nothing observable costs nothing.
	app.docs.store(changedDocs, app.cache.generation())
	rm.Publish()
	rebuildDuration.Observe(time.Since(start))
	rebuildsByVerdict[verdict].Inc()
	return dropped, verdict, nil
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

// Model returns the navigational model.
func (app *App) Model() *navigation.Model { return app.model }

// Resolved returns the resolved navigation model: the newest one a
// rebuild has published. It takes no lock, so it never waits for a
// rebuild in progress; it returns the model that rebuild replaces until
// the rebuild publishes.
func (app *App) Resolved() *navigation.ResolvedModel { return app.lineage.Newest() }

// Weaver returns the aspect weaver, so callers can register further
// aspects (logging, access control) beside navigation.
func (app *App) Weaver() *aspect.Weaver { return app.weaver }

// Linkbase returns the generated links.xml document. The App holds
// links.xml as bytes, not as a tree, so each call builds a fresh tree
// from the contexts it holds: the caller may change it freely.
func (app *App) Linkbase() *xmldom.Document {
	app.mu.RLock()
	ordered := app.links.ordered
	app.mu.RUnlock()
	return navigation.BuildLinkbase(ordered)
}

// Repository returns a deep copy of the data-document repository (node
// XML files plus links.xml, built afresh as Linkbase builds it), the
// input an XLink-aware agent works from: a snapshot no later mutation
// reaches. DocumentCount counts the repository without copying it.
func (app *App) Repository() xlink.MapRepository {
	app.mu.RLock()
	repo := make(xlink.MapRepository, len(app.repo)+1)
	for uri, doc := range app.repo {
		repo[uri] = doc.Clone()
	}
	ordered := app.links.ordered
	app.mu.RUnlock()
	repo[linksURI] = navigation.BuildLinkbase(ordered)
	return repo
}

// DocumentCount returns how many documents the repository holds: the
// data documents and links.xml.
func (app *App) DocumentCount() int {
	app.mu.RLock()
	defer app.mu.RUnlock()
	return len(app.repo) + 1
}

// SetStylesheet installs a custom presentation stylesheet for node pages.
// It must transform a node data document (e.g. Figure 7's painter XML)
// into a single html element. A nil stylesheet restores the built-in
// presentation. Only the cached pages woven through the stylesheet slot
// — member pages — are invalidated; hub shells and the serialized
// documents never consult it and stay cached.
func (app *App) SetStylesheet(ss *presentation.Stylesheet) {
	start := time.Now()
	app.mu.Lock()
	defer app.mu.Unlock()
	app.stylesheet = ss
	app.stylesheetSrc = ""
	dropped := app.cache.invalidateMatching(func(p *Page) bool { return p.deps.stylesheet })
	app.recordMutation("stylesheet", "stylesheet", start, dropped, verdictLocal)
}

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
	start := time.Now()
	app.mu.Lock()
	defer app.mu.Unlock()
	app.stylesheet = ss
	app.stylesheetSrc = src
	dropped := app.cache.invalidateMatching(func(p *Page) bool { return p.deps.stylesheet })
	app.recordMutation("stylesheet", "stylesheet", start, dropped, verdictLocal)
	return nil
}

// StylesheetXML returns the XML source of the stylesheet installed
// through SetStylesheetXML, and whether one is in effect. The built-in
// presentation and programmatically installed stylesheets have no XML
// source, so they report false.
func (app *App) StylesheetXML() (string, bool) {
	app.mu.RLock()
	defer app.mu.RUnlock()
	return app.stylesheetSrc, app.stylesheetSrc != ""
}

// SpecText renders the current navigational model as its declaration
// artifact (navigation.SpecText), read under the model lock so a
// concurrent access-structure swap cannot tear the text mid-render.
func (app *App) SpecText() string {
	app.mu.RLock()
	defer app.mu.RUnlock()
	return navigation.SpecText(app.model)
}

// ModelView is one consistent read of everything the control plane's
// model endpoint serves: the declaration artifact, each family's access
// structure, the resolved model and the cache generation, all taken
// under a single acquisition of the model lock — a concurrent swap
// yields either the before or the after view, never a mix.
type ModelView struct {
	SpecText   string
	Access     map[string]navigation.AccessStructure
	Resolved   *navigation.ResolvedModel
	Generation uint64
}

// View snapshots a ModelView.
func (app *App) View() ModelView {
	app.mu.RLock()
	defer app.mu.RUnlock()
	access := make(map[string]navigation.AccessStructure, len(app.model.Contexts()))
	for _, c := range app.model.Contexts() {
		access[c.Name] = c.Access
	}
	return ModelView{
		SpecText:   navigation.SpecText(app.model),
		Access:     access,
		Resolved:   app.Resolved(),
		Generation: app.cache.generation(),
	}
}

// ErrUnknownFamily reports a structure swap naming a context family the
// model does not declare; callers (the control plane) test for it with
// errors.Is to answer 404 rather than 500.
var ErrUnknownFamily = errors.New("unknown context family")

// SetAccessStructure swaps the access structure of one context family and
// re-derives the linkbase — the paper's requirements change (Index to
// Indexed Guided Tour), reduced from editing every page to one call.
// Cached pages are invalidated atomically with the swap, so the paper's
// motivating change-cost scenario stays correct under cached serving.
func (app *App) SetAccessStructure(family string, as navigation.AccessStructure) error {
	_, err := app.SetAccessStructures(map[string]navigation.AccessStructure{family: as})
	return err
}

// SetAccessStructures swaps the access structures of several context
// families atomically, with one re-derivation and one invalidation diff
// for the whole batch — what the adaptation loop wants when a derive
// cycle updates every family at once, where per-family calls would cost
// a full rebuild each. All families are validated before any is
// mutated; an empty map is a no-op. It returns how many cached pages
// the batch invalidated — the blast radius the dependency-aware diff
// decided on, which the control plane reports back to the operator.
func (app *App) SetAccessStructures(swaps map[string]navigation.AccessStructure) (int, error) {
	if len(swaps) == 0 {
		return 0, nil
	}
	defs := make(map[string]*navigation.ContextDef, len(swaps))
	for _, c := range app.model.Contexts() {
		if _, wanted := swaps[c.Name]; wanted {
			defs[c.Name] = c
		}
	}
	families := make([]string, 0, len(swaps))
	for family := range swaps {
		if defs[family] == nil {
			return 0, fmt.Errorf("core: %w %q", ErrUnknownFamily, family)
		}
		families = append(families, family)
	}
	sort.Strings(families)
	start := time.Now()
	app.mu.Lock()
	defer app.mu.Unlock()
	for family, as := range swaps {
		defs[family].Access = as
	}
	dropped, verdict, err := app.rebuild(xlink.MapRepository{})
	if err != nil {
		return dropped, err
	}
	app.recordMutation("structure-swap", strings.Join(families, ","), start, dropped, verdict)
	return dropped, nil
}

// InvalidateDocument re-derives the model after an edit to the data
// behind the named document (conceptual.Store.SetAttr) and drops
// exactly the cached pages the edit touched, returning how many. The
// uri is the document's repository name (navigation.NodeHref of the
// node, e.g. "guitar.xml"); a name that is neither links.xml nor the
// document of a store instance is an error, reported before anything is
// re-derived. Only the named document is re-exported; invalidating
// links.xml re-derives navigation alone.
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
	start := time.Now()
	app.mu.Lock()
	defer app.mu.Unlock()
	docs := xlink.MapRepository{}
	if inst != nil {
		docs[uri] = conceptual.ExportInstance(app.store, inst)
	}
	dropped, verdict, err := app.rebuild(docs)
	if err != nil {
		return dropped, err
	}
	app.recordMutation("document", uri, start, dropped, verdict)
	return dropped, nil
}

// DocBytes returns the serialized form of repository document uri with
// its precomputed strong validator and Content-Length. The bytes are
// produced once, at mutation time (rebuild serializes each document it
// re-derives), so the request path neither serializes, hashes nor
// formats. The returned slice is shared: callers must not modify it.
//
//repro:hotpath
func (app *App) DocBytes(uri string) (body []byte, etag, contentLength string, err error) {
	if e, ok := app.docs.get(uri); ok {
		return e.body, e.etag, e.clen, nil
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

// CachedPages reports how many woven pages the request-time cache
// currently holds (diagnostics and tests).
func (app *App) CachedPages() int { return app.cache.size() }

// CacheGeneration returns the woven-page cache's current generation.
// Every model mutation (SetAccessStructure, SetStylesheet) advances it,
// so it doubles as the HTTP validator: the server folds it into ETags,
// making every cached response self-invalidate on the next mutation.
func (app *App) CacheGeneration() uint64 { return app.cache.generation() }

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
