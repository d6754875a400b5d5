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
// presentation by construction; mutations publish the next generation,
// the only state an App publishes (see Reader and App). A generation's
// data is its resolved model's instances, and it holds each data
// document as its served bytes alone.
//
// The App holds links.xml only as its served bytes, with no tree: the
// weaver reads the contexts as that markup reads back. One pass writes
// both from the derived contexts (navigation.NewLinkbaseText): the
// bytes the linkbase document serializes to, each extended link written
// once into a body a length function sized and held as its own slice of
// it, and the contexts ParseLinkbase would read out of it, with no
// document built or parsed; a context that reads back as it was derived
// is kept as that same object, not a copy. A differential test and a
// fuzz target hold the pass equal to that tree round trip, and the
// rebuild oracle parses the served bytes.
//
// A mutation re-derives only what it changed. It resolves the next model
// from the current one, which takes over every context whose
// declaration and filtered member instances are those of its
// predecessor — the same object, made, sorted, interned and traversed
// once — and keeps each such context's linkbase form and bytes as they
// were. Only the other contexts are derived and compared; the extended
// links of those that changed are written anew, and the next links.xml
// shares every other link with the current one. Its body is joined, and
// its strong validator hashed, on its first read, so a mutation copies
// and hashes no links.xml that nobody reads. A structure swap re-derives
// its family's edges over the members it had and re-exports no
// document; a caption edit re-resolves the contexts holding the edited
// instance, re-exports one document and leaves links.xml as it was; a
// title edit also rewrites the extended links that list the title.
// Every data document's validator is hashed once, when its body is
// made, with the hardware CRCs of hash/crc32 (see strongETag).
package core

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
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
// mutation; sessions resolve against its resolved model through the
// lineage. A page reads its data from its generation's instances, never
// from the live store.
type Reader struct {
	weaver *aspect.Weaver
	// lineage numbers the names of the resolved models: every rebuild
	// resolves into it, and its function is Resolved.
	lineage *navigation.Lineage
	// events traces recent mutations: duration, diff verdict and
	// invalidation blast radius per model change (see Events).
	events *obs.EventRing
	gen    atomic.Pointer[generation]
}

// App is a woven web application: one conceptual store, one navigational
// model, optional custom presentation, and an aspect weaver. It is its
// Reader plus the mutations (SetAccessStructure, SetStylesheet,
// EditDocument, InvalidateDocument), which any number of goroutines may
// run while others render and serve. Mutations serialize on writeMu,
// build the next generation beside the current one, sharing every part
// they did not change, and publish it with one store of the generation
// pointer, the App's only published state. Only a mutation reads or
// writes the conceptual store: a generation holds the store's
// instances, which are never changed, and no store.
type App struct {
	*Reader
	store   *conceptual.Store
	writeMu sync.Mutex
}

// generation is everything a response is woven or served from, never
// changed once published but for its page cache filling. Pages read
// their data from its resolved model's member instances.
type generation struct {
	// num is the generation ETags carry. It advances with every
	// mutation that drops a cached page or changes a document.
	num      uint64
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

// document is one repository document as it is served, held as bytes
// alone: its serialized body with the body's strong validator and
// Content-Length, made before the serve path reads them, so that it
// neither serializes, hashes nor formats. Repository parses the body
// when asked for a tree. A data document is made whole when a mutation
// writes it; links.xml's is made on its first read (see join).
type document struct {
	body []byte
	etag string
	clen string
	// join is set on links.xml's document alone.
	join *join
}

// join is what links.xml's document is made of on its first read: the
// linkbase text whose links its body joins, and the generation its
// validator names. A mutation that rewrites some extended links then
// copies and hashes no body that nobody reads (1.7 MB on the 50/20/8
// museum); the first read joins it once, and every read after it,
// concurrent ones included, gets that body and validator. A text
// NewLinkbaseText wrote is its own body, so joining it copies nothing.
type join struct {
	once sync.Once
	text navigation.LinkbaseText
	num  uint64
}

// served returns d with its body, validator and Content-Length made.
func (d *document) served() *document {
	if j := d.join; j != nil {
		j.once.Do(func() {
			d.body = j.text.Bytes()
			d.etag, d.clen = strongETag(j.num, d.body), strconv.Itoa(len(d.body))
		})
	}
	return d
}

// linkbase is links.xml as the App holds it, one value that a rebuild
// builds beside the current one and installs whole, never editing it:
// the served bytes as one slice per context's extended link (the
// links.xml document joins them when first read), and its contexts as
// the weaver reads them, as the markup reads back, in linkbase order
// and by name. A rebuild derives and compares only the contexts its
// resolution did not take over; a context taken over keeps the linkbase
// context held for it, with its bytes. Each context is held once: the
// next rebuild compares its derivation with the read-back context,
// except where the markup could not carry a derivation exactly (xmldom
// writes each byte of invalid UTF-8 as U+FFFD), which is then kept in
// the read-back one's place in the order, so the comparison never takes
// a change for none. No tree of links.xml is built to make it, and none
// stays resident: Linkbase and Repository build one on demand.
type linkbase struct {
	text     navigation.LinkbaseText
	ordered  []*navigation.LinkbaseContext
	contexts map[string]*navigation.LinkbaseContext
	// containing lists, for each member id, the names of the contexts
	// whose locators hold it, in sorted order: a member page's "Also in"
	// links. A relink that changes no context's members shares it.
	containing map[string][]string
}

// linksURI is the linkbase's name in the repository.
const linksURI = "links.xml"

// NewApp assembles an application: it resolves the navigational model,
// exports the data documents, generates the linkbase and installs the
// navigation aspect. The App never changes model; a structure swap
// publishes a copy.
func NewApp(store *conceptual.Store, model *navigation.Model) (*App, error) {
	r := &Reader{weaver: aspect.NewWeaver(), events: obs.NewEventRing(eventRingCapacity)}
	r.lineage = navigation.NewLineage(r.Resolved)
	app := &App{Reader: r, store: store}
	empty := &generation{docs: map[string]*document{}, pages: newPageCache()}
	g, _, _, err := app.rebuild(empty, model, store.Instances())
	if err != nil {
		return nil, err
	}
	app.gen.Store(g)
	app.weaver.Use(NavigationAspect())
	return app, nil
}

// mutate runs one mutation: holding writeMu, it builds the generation
// that follows the current one with build, publishes it and records the
// mutation, so no generation is published after a newer one. A build
// that fails publishes nothing, and the App stays on the current
// generation. It returns how many cached pages the mutation dropped.
func (app *App) mutate(kind, target string, build func(cur *generation) (*generation, int, string, error)) (int, error) {
	start := time.Now()
	app.writeMu.Lock()
	defer app.writeMu.Unlock()
	next, dropped, verdict, err := build(app.gen.Load())
	if err != nil {
		return 0, err
	}
	app.gen.Store(next)
	app.recordMutation(kind, target, start, dropped, verdict)
	return dropped, nil
}

// rebuild builds the generation that follows cur once model replaces
// cur's and the documents of insts, the instances whose data documents
// a mutation re-exports, replace cur's — every one from NewApp, the
// edited one from EditDocument or InvalidateDocument, none from a
// structure swap. It resolves the model from cur's resolved model, which
// takes over every context the mutation cannot have changed before any
// node is made (see navigation.Lineage.Resolve); derives and compares
// with cur's linkbase only the contexts it did not take over; writes
// the extended links of those that changed into the next links.xml,
// sharing the rest; and shares with cur every document and cached page
// the mutation did not change. cur stays as it was.
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
func (app *App) rebuild(cur *generation, model *navigation.Model, insts []*conceptual.Instance) (*generation, int, string, error) {
	start := time.Now()
	rm, err := app.lineage.Resolve(model, app.store, cur.resolved)
	if err != nil {
		return nil, 0, "", fmt.Errorf("core: resolving navigation model: %w", err)
	}
	prev := cur.links
	// A context list of a new shape — the first build, or a context
	// that appeared, vanished or moved — regenerates the whole linkbase.
	reshaped := prev == nil || !slices.EqualFunc(prev.ordered, rm.Contexts,
		func(a *navigation.LinkbaseContext, b *navigation.ResolvedContext) bool { return a.Name == b.Name })
	full := reshaped || landmarksMoved(cur.resolved, rm)
	changedCtxs := map[string]bool{}
	// The next links.xml is built beside the current one; with no
	// context changed there is none.
	var links *linkbase
	if reshaped {
		links, err = link(navigation.LinkbaseContexts(rm))
	} else {
		// contexts is cur's linkbase with each changed context's
		// derivation in its place.
		contexts := slices.Clone(prev.ordered)
		var changed []int
		for i, rc := range rm.Contexts {
			if rc == cur.resolved.Contexts[i] {
				continue // taken over: the linkbase context held for it stands
			}
			c := navigation.LinkbaseContextOf(rc)
			members, structure := compareContexts(prev.ordered[i], c)
			if !members {
				full = true
			}
			if !structure {
				changedCtxs[c.Name] = true
			}
			if !members || !structure {
				contexts[i] = c
				changed = append(changed, i)
			}
		}
		if len(changed) > 0 {
			links, err = prev.relink(contexts, changed)
		}
	}
	if err != nil {
		return nil, 0, "", fmt.Errorf("core: reading generated linkbase: %w", err)
	}
	next := &generation{num: cur.num, resolved: rm, links: prev, docs: maps.Clone(cur.docs),
		stylesheet: cur.stylesheet, stylesheetSrc: cur.stylesheetSrc}
	if len(cur.docs) == 0 {
		// The first build sizes the map once, for every document.
		next.docs = make(map[string]*document, len(insts)+1)
	}

	// Write each handed instance's data document once, at mutation time,
	// straight from the instance, and keep only the bytes: they are what
	// the server hands out and the snapshot export writes, and comparing
	// them with cur's bodies reveals which changed. All of them are
	// appended into one buffer, sized once for them (escapes aside), and
	// each body is its own part of it, so NewApp allocates one buffer for
	// the site's documents rather than one per document and a tree each.
	// The bodies are cut only once every document is in the buffer, which
	// an escape may have grown. links.xml comes serialized already.
	size := 0
	for _, inst := range insts {
		size += conceptual.DocumentSize(inst)
	}
	buf := make([]byte, 0, size)
	ends := make([]int, len(insts))
	for i, inst := range insts {
		buf = conceptual.AppendDocument(buf, inst)
		ends[i] = len(buf)
	}
	docs := make([]document, len(insts))
	changedDocs := make(map[string]bool, len(insts)+1)
	from := 0
	for i, inst := range insts {
		uri := navigation.NodeHref(inst.ID)
		body := buf[from:ends[i]:ends[i]]
		from = ends[i]
		if old := cur.docs[uri]; old != nil && bytes.Equal(old.body, body) {
			continue // the same bytes keep their document, and its ETag
		}
		docs[i].body = body
		next.docs[uri] = &docs[i]
		changedDocs[uri] = true
	}
	if links != nil {
		// links.xml changed unless every link is the current one's;
		// Equal reads only the links written anew.
		if prev != nil && links.text.Equal(prev.text) {
			links.text = prev.text
		} else {
			next.docs[linksURI] = &document{join: &join{text: links.text}}
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
	// nothing. links.xml is joined and hashed when first read.
	for uri := range changedDocs {
		d := next.docs[uri]
		if d.join != nil {
			d.join.num = next.num
			continue
		}
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
// the markup could not. A context that reads back as it is was not
// copied, and parsed is derived.
func kept(parsed, derived *navigation.LinkbaseContext) *navigation.LinkbaseContext {
	if parsed == derived {
		return parsed
	}
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
	lb.containing = containing(lb.contexts)
	return lb, nil
}

// containing indexes contexts by member: for each member id, the names
// of the contexts that hold it, sorted. The lists share one array, each
// cut at its exact size.
func containing(contexts map[string]*navigation.LinkbaseContext) map[string][]string {
	names := make([]string, 0, len(contexts))
	count := map[string]int{}
	total := 0
	for name, lc := range contexts {
		names = append(names, name)
		for id := range lc.NodeTitles {
			count[id]++
		}
		total += len(lc.NodeTitles)
	}
	sort.Strings(names)
	free := make([]string, total)
	in := make(map[string][]string, len(count))
	for _, name := range names {
		for id := range contexts[name].NodeTitles {
			list, ok := in[id]
			if !ok {
				list, free = free[:0:count[id]], free[count[id]:]
			}
			in[id] = append(list, name)
		}
	}
	return in
}

// relink makes the linkbase that follows lb when the contexts at the
// changed positions change. Each is written alone, with the context its
// markup reads back, so the weaver still reads navigation as linkbase
// markup carries it and never out of the model; the unchanged contexts'
// links carry over, shared, with their read-back contexts. Skipping the
// other contexts rests on an extended link's bytes depending on its
// context alone.
func (lb *linkbase) relink(contexts []*navigation.LinkbaseContext, changed []int) (*linkbase, error) {
	text, parsed, err := lb.text.Splice(contexts, changed)
	if err != nil {
		return nil, err
	}
	next := &linkbase{text: text, ordered: slices.Clone(lb.ordered), contexts: maps.Clone(lb.contexts),
		containing: lb.containing}
	regroup := false
	for k, i := range changed {
		next.ordered[i] = kept(parsed[k], contexts[i])
		// The index changes only with a context's member ids.
		if old := lb.contexts[parsed[k].Name]; old == nil ||
			!maps.EqualFunc(old.NodeTitles, parsed[k].NodeTitles, func(string, string) bool { return true }) {
			regroup = true
		}
		next.contexts[parsed[k].Name] = parsed[k]
	}
	if regroup {
		next.containing = containing(next.contexts)
	}
	return next, nil
}

// Store returns the conceptual store: the writers' store, which only
// mutations read or write. The server never calls it. A caller may read
// or edit it only while no mutation runs, and an edit made there
// reaches pages once InvalidateDocument re-exports its document;
// EditDocument edits without either condition.
func (app *App) Store() *conceptual.Store { return app.store }

// Model returns the navigational model the App serves. A model the App
// has published is never changed: a structure swap publishes a copy.
func (r *Reader) Model() *navigation.Model { return r.gen.Load().resolved.Model }

// Resolved returns the current generation's resolved model, which the
// App's sessions resolve against. It never waits for a mutation in
// progress; until that mutation publishes, it returns the model it
// replaces.
func (r *Reader) Resolved() *navigation.ResolvedModel { return r.gen.Load().resolved }

// HopKeys returns how many distinct hops the current generation's site
// can make, the keys an analytics recorder counts: one per navigation
// edge, one entry per member and one per hub. It counts them in the
// contexts links.xml was written from, which hold the edges the rebuild
// derived, and derives none again.
func (r *Reader) HopKeys() int {
	n := 0
	for _, lc := range r.gen.Load().links.ordered {
		n += len(lc.Edges) + len(lc.Order)
		if lc.HasHub {
			n++
		}
	}
	return n
}

// Weaver returns the aspect weaver, so callers can register further
// aspects (logging, access control) beside navigation.
func (app *App) Weaver() *aspect.Weaver { return app.weaver }

// Linkbase returns the generated links.xml document. The App holds
// links.xml as bytes, not as a tree, so each call builds a fresh tree
// from the contexts it holds: the caller may change it freely.
func (r *Reader) Linkbase() *xmldom.Document {
	return navigation.BuildLinkbase(r.gen.Load().links.ordered)
}

// Repository returns the document repository (node XML files plus
// links.xml), the input an XLink-aware agent works from: each served
// body parsed afresh, as LoadSnapshotRepository parses a snapshot, into
// a copy no later mutation reaches. DocumentCount counts it unparsed.
func (r *Reader) Repository() xlink.MapRepository {
	g := r.gen.Load()
	repo := make(xlink.MapRepository, len(g.docs))
	for uri, d := range g.docs {
		doc, err := parseDocument(uri, d.served().body)
		if err != nil { // the body is xmldom's own output
			panic(fmt.Sprintf("core: served document %q does not parse: %v", uri, err))
		}
		repo[uri] = doc
	}
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
	model := g.resolved.Model
	access := make(map[string]navigation.AccessStructure, len(model.Contexts()))
	for _, c := range model.Contexts() {
		access[c.Name] = c.Access
	}
	return ModelView{
		SpecText:   navigation.SpecText(model),
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
			if !slices.ContainsFunc(cur.resolved.Model.Contexts(), func(c *navigation.ContextDef) bool { return c.Name == family }) {
				return nil, 0, "", fmt.Errorf("core: %w %q", ErrUnknownFamily, family)
			}
		}
		return app.rebuild(cur, cur.resolved.Model.WithAccess(swaps), nil)
	})
}

// ErrUnknownInstance and ErrInvalidEdit report an EditDocument naming
// no instance of the store, and a batch the instance's class rejects;
// callers (the control plane) test for them with errors.Is to answer
// 404 and 400 rather than 500.
var (
	ErrUnknownInstance = errors.New("unknown instance")
	ErrInvalidEdit     = errors.New("invalid edit")
)

// EditDocument sets attributes of the store instance id and re-derives
// the model, as one mutation, and drops exactly the cached pages the
// edit touched, returning how many. The batch is validated whole
// against the instance's class before anything changes (see
// conceptual.Store.SetAttrs), and the edit, the re-export of the
// instance's document (navigation.NodeHref of id) and the rebuild all
// run under the writers' lock: concurrent edits of one document apply
// in some serial order, and each generation serves the attributes of
// one of them. A rebuild that fails publishes nothing, though the store
// keeps the edit.
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
func (app *App) EditDocument(id string, set map[string]string) (int, error) {
	uri := navigation.NodeHref(id)
	return app.mutate("document", uri, func(cur *generation) (*generation, int, string, error) {
		if app.store.Get(id) == nil {
			return nil, 0, "", fmt.Errorf("core: %w %q", ErrUnknownInstance, id)
		}
		if err := app.store.SetAttrs(id, set); err != nil {
			return nil, 0, "", fmt.Errorf("core: %w: %w", ErrInvalidEdit, err)
		}
		return app.rebuild(cur, cur.resolved.Model, []*conceptual.Instance{app.store.Get(id)})
	})
}

// InvalidateDocument re-derives the model after an edit made to the
// store directly (Store().SetAttrs, while no mutation ran) and drops
// exactly the cached pages the edit touched, returning how many. The
// server edits through EditDocument and no longer calls it. The uri is
// the document's repository name (navigation.NodeHref of the node, e.g.
// "guitar.xml"); a name that is neither links.xml nor the document of a
// store instance is an error, reported before anything is re-derived.
// Only the named document is re-exported; invalidating links.xml
// re-derives navigation alone. Pages are woven from the exported
// documents, so an edit reaches pages once its document is invalidated.
func (app *App) InvalidateDocument(uri string) (int, error) {
	return app.mutate("document", uri, func(cur *generation) (*generation, int, string, error) {
		if uri == linksURI {
			return app.rebuild(cur, cur.resolved.Model, nil)
		}
		id, ok := strings.CutSuffix(uri, ".xml")
		inst := app.store.Get(id)
		if !ok || inst == nil {
			return nil, 0, "", fmt.Errorf("core: no document %q", uri)
		}
		return app.rebuild(cur, cur.resolved.Model, []*conceptual.Instance{inst})
	})
}

// DocBytes returns the serialized form of repository document uri with
// its precomputed strong validator and Content-Length. A data document's
// bytes are produced once, at mutation time (rebuild serializes each
// document it re-derives), and links.xml's once per generation that
// changed it, on its first read, so the request path neither
// serializes, hashes nor formats. The returned slice is shared: callers
// must not modify it.
//
//repro:hotpath
func (r *Reader) DocBytes(uri string) (body []byte, etag, contentLength string, err error) {
	if d := r.gen.Load().docs[uri]; d != nil {
		//repro:allow(the first read of a generation's links.xml joins and hashes its body, once)
		d = d.served()
		return d.body, d.etag, d.clen, nil
	}
	//repro:allow(miss path: unknown document, request fails with 404)
	return nil, "", "", fmt.Errorf("core: no document %q", uri)
}

// castagnoli is the CRC-32C table strongETag hashes with.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// strongETag builds the validator for a body serialized under gen:
// "g<generation>-<hash>". Either a model change (new generation for
// changed content) or a content change produces a new tag, while
// untouched content keeps validating across unrelated mutations. The
// hash is 64 bits, the body's CRC-32C (Castagnoli) in the high half and
// its CRC-32 (IEEE) in the low half: two independent polynomials that
// hash/crc32 computes in hardware on amd64 and arm64, an order of
// magnitude faster than a byte-at-a-time hash, and unseeded, so every
// process tags the same body alike.
func strongETag(gen uint64, body []byte) string {
	sum := uint64(crc32.Checksum(body, castagnoli))<<32 | uint64(crc32.ChecksumIEEE(body))
	var tag [len(`"g-"`) + 20 + 16]byte // a uint64 has at most 20 digits, 16 in hex
	b := append(tag[:0], `"g`...)
	b = strconv.AppendUint(b, gen, 10)
	b = append(b, '-')
	b = strconv.AppendUint(b, sum, 16)
	return string(append(b, '"'))
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
