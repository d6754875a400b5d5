package core

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"

	"repro/internal/aspect"
	"repro/internal/navigation"
	"repro/internal/presentation"
	"repro/internal/xlink"
	"repro/internal/xmldom"
)

// Page is one woven page of the site. A page is serialized, measured and
// validator-hashed exactly once, at weave time: the request path serves
// Body with ETag and ContentLength as-is, copying and hashing nothing.
type Page struct {
	// Path is the site-relative output path, e.g.
	// "ByAuthor/picasso/guitar.html".
	Path string
	// Context is the resolved context the page belongs to.
	Context string
	// NodeID is the member node, or navigation.HubID for an index page.
	NodeID string
	// Doc is the woven page tree on pages from RenderPage and WeaveSite.
	// Pages from RenderPageCached carry only their bytes: Doc is nil.
	Doc *xmldom.Document
	// Body is the serialized page, exactly its length in capacity and
	// shared by every caller: serve it, do not modify it.
	Body []byte
	// ETag is the page's strong HTTP validator,
	// "g<generation>-<hash>", precomputed from the exact body.
	ETag string
	// ContentLength is len(Body) in decimal, precomputed for the
	// Content-Length header.
	ContentLength string

	// deps records the inputs the page was woven from, for
	// dependency-aware cache invalidation.
	deps pageDeps
}

// HTML returns the serialized page as a string (a copy of Body).
func (p *Page) HTML() string { return string(p.Body) }

// Site is a complete woven static site.
type Site struct {
	pages map[string]*Page
}

// Page returns the page at the given path, or nil.
func (s *Site) Page(path string) *Page { return s.pages[path] }

// Paths returns all page paths, sorted.
func (s *Site) Paths() []string {
	out := make([]string, 0, len(s.pages))
	for p := range s.pages {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of pages.
func (s *Site) Len() int { return len(s.pages) }

// Files returns path -> HTML for writing the site out.
func (s *Site) Files() map[string]string {
	out := make(map[string]string, len(s.pages))
	for p, pg := range s.pages {
		out[p] = pg.HTML()
	}
	return out
}

// WriteTo writes every page under dir, creating directories as needed.
func (s *Site) WriteTo(dir string) error {
	for _, rel := range s.Paths() {
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return fmt.Errorf("core: writing site: %w", err)
		}
		if err := os.WriteFile(path, s.pages[rel].Body, 0o644); err != nil {
			return fmt.Errorf("core: writing site: %w", err)
		}
	}
	return nil
}

// weaveTask is one (context, node) pair of a site weave.
type weaveTask struct {
	rc     *navigation.ResolvedContext
	nodeID string
}

// WeaveSite statically weaves every page of every resolved context,
// running the full aspect pipeline per page — the build-time flavour of
// the paper's Figure 6 composition. Pages are woven by a bounded worker
// pool sized to GOMAXPROCS; use WeaveSiteWorkers to pick the size. The
// woven output is deterministic regardless of worker count: every page's
// content depends only on its own (context, node) pair.
func (app *App) WeaveSite() (*Site, error) {
	return app.WeaveSiteWorkers(0)
}

// WeaveSiteWorkers weaves the site with the given number of concurrent
// page workers. workers <= 0 selects GOMAXPROCS. While the weaver is
// tracing, weaving is forced sequential so the recorded advice trace
// stays deterministic (the E1 figure's contract).
func (app *App) WeaveSiteWorkers(workers int) (*Site, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if app.weaver.Tracing() {
		workers = 1
	}
	g := app.gen.Load()
	site := &Site{pages: map[string]*Page{}}
	jp := &aspect.JoinPoint{Kind: KindSiteWeave, Name: "site", Target: app}
	_, err := app.weaver.Execute(jp, func(*aspect.JoinPoint) (any, error) {
		var tasks []weaveTask
		for _, rc := range g.resolved.Contexts {
			if rc.Def.Access.HasHub() {
				tasks = append(tasks, weaveTask{rc, navigation.HubID})
			}
			for _, m := range rc.Members {
				tasks = append(tasks, weaveTask{rc, m.ID()})
			}
		}
		pages, err := app.renderAll(g, tasks, workers)
		if err != nil {
			return nil, err
		}
		for _, page := range pages {
			site.pages[page.Path] = page
		}
		return nil, nil
	})
	if err != nil {
		return nil, err
	}
	return site, nil
}

// renderAll weaves every task's page, fanning out over a bounded worker
// pool. Results are assembled by task index and the first error in task
// order wins, so output and error reporting are deterministic. Every
// page is woven from generation g.
func (app *App) renderAll(g *generation, tasks []weaveTask, workers int) ([]*Page, error) {
	if workers > len(tasks) {
		workers = len(tasks)
	}
	out := make([]*Page, len(tasks))
	if workers <= 1 {
		for i, t := range tasks {
			page, err := app.renderPage(g, t.rc.Name, t.nodeID)
			if err != nil {
				return nil, err
			}
			out[i] = page
		}
		return out, nil
	}
	errs := make([]error, len(tasks))
	feed := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				out[i], errs[i] = app.renderPage(g, tasks[i].rc.Name, tasks[i].nodeID)
			}
		}()
	}
	for i := range tasks {
		feed <- i
	}
	close(feed)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RenderPage weaves a single page on demand — the request-time flavour
// used by the XLink-aware server.
func (r *Reader) RenderPage(contextName, nodeID string) (*Page, error) {
	return r.renderPage(r.gen.Load(), contextName, nodeID)
}

// CacheOutcome classifies how RenderPageCachedStat satisfied a
// request, so the serving layer can attribute the render phase without
// reaching into the cache.
type CacheOutcome uint8

const (
	// CacheHit served the previously woven page.
	CacheHit CacheOutcome = iota
	// CacheJoin coalesced onto another request's in-flight weave.
	CacheJoin
	// CacheMiss led the weave and cached the result.
	CacheMiss
)

// RenderPageCached is RenderPage behind the woven-page cache: a hit
// returns the previously woven page, a miss weaves and caches it, and
// concurrent misses for the same page coalesce into one weave. Each
// generation caches its own pages, so a visitor can never be served a
// page woven from another generation than the one the request read.
// The returned page is shared and holds no tree (Doc is nil): serve its
// Body, do not modify it.
//
//repro:hotpath
func (r *Reader) RenderPageCached(contextName, nodeID string) (*Page, error) {
	page, _, err := r.RenderPageCachedStat(contextName, nodeID)
	return page, err
}

// RenderPageCachedStat is RenderPageCached reporting how the cache
// satisfied the request (hit, single-flight join, or leading miss).
//
//repro:hotpath
func (r *Reader) RenderPageCachedStat(contextName, nodeID string) (*Page, CacheOutcome, error) {
	if nodeID == "" {
		nodeID = navigation.HubID
	}
	g := r.gen.Load()
	key := pageKey{context: contextName, node: nodeID}
	page, f, leader := g.pages.beginOrJoin(key)
	switch {
	case page != nil:
		cacheHits.Inc()
		return page, CacheHit, nil
	case !leader:
		cacheJoins.Inc()
		f.wg.Wait()
		return f.page, CacheJoin, f.err
	}
	cacheMisses.Inc()
	//repro:allow(cold miss: the one weave the cache exists to amortize)
	p, err := r.renderPage(g, contextName, nodeID)
	if p != nil {
		p.Doc = nil // the cache holds the bytes alone
	}
	g.pages.finish(key, f, p, err)
	return p, CacheMiss, err
}

// renderPage weaves one page from generation g. The page join point
// carries g as its Target, so the navigation advice reads g's linkbase.
func (r *Reader) renderPage(g *generation, contextName, nodeID string) (*Page, error) {
	rc := g.resolved.Context(contextName)
	if rc == nil {
		return nil, fmt.Errorf("core: unknown context %q", contextName)
	}
	// The page keeps the model's own names, never the caller's: a
	// caller's id may be cut from a request line, which a cached page
	// would otherwise keep alive.
	var class string
	if nodeID == "" || nodeID == navigation.HubID {
		if !rc.Def.Access.HasHub() {
			return nil, fmt.Errorf("core: context %q has no index page (%s)", contextName, rc.Def.Access.Kind())
		}
		nodeID = navigation.HubID
	} else if m := rc.Member(nodeID); m != nil {
		class, nodeID = m.Class.Name, m.ID()
	} else {
		return nil, fmt.Errorf("core: node %q is not a member of context %q", nodeID, contextName)
	}
	jp := &aspect.JoinPoint{
		Kind: KindPageRender,
		Name: nodeID,
		Attrs: map[string]string{
			"context": rc.Name,
			"family":  rc.Def.Name,
			"access":  rc.Def.Access.Kind(),
			"class":   class,
		},
		Target: g,
	}
	result, err := r.weaver.Execute(jp, func(jp *aspect.JoinPoint) (any, error) {
		return g.basePage(rc, nodeID)
	})
	if err != nil {
		return nil, fmt.Errorf("core: weaving %s/%s: %w", contextName, nodeID, err)
	}
	doc, ok := result.(*xmldom.Document)
	if !ok {
		return nil, fmt.Errorf("core: page pipeline produced %T, want *xmldom.Document", result)
	}
	body := appendPageHTML(doc)
	return &Page{
		Path:          PagePath(rc.Name, nodeID),
		Context:       rc.Name,
		NodeID:        nodeID,
		Doc:           doc,
		Body:          body,
		ETag:          strongETag(g.num, body),
		ContentLength: strconv.Itoa(len(body)),
		deps:          g.pageDeps(rc, nodeID),
	}, nil
}

// htmlBufs recycles the buffers pages are serialized into, so a weave
// allocates only the exact-size body it keeps.
var htmlBufs = sync.Pool{New: func() any { return new([]byte) }}

// appendPageHTML serializes a woven page tree into a pooled buffer and
// returns a copy exactly its length: a page outlives the weave in the
// cache, and must not keep a growth buffer's slack with it.
func appendPageHTML(doc *xmldom.Document) []byte {
	buf := htmlBufs.Get().(*[]byte)
	*buf = presentation.AppendHTML((*buf)[:0], doc.Root(), presentation.HTMLOptions{Doctype: true, Indent: "  "})
	body := make([]byte, len(*buf))
	copy(body, *buf)
	htmlBufs.Put(buf)
	return body
}

// pageDeps records what a woven (context, node) page reads: its
// context's structure, the data documents woven into its body, and —
// for member pages — the presentation stylesheet slot.
func (g *generation) pageDeps(rc *navigation.ResolvedContext, nodeID string) pageDeps {
	deps := pageDeps{context: rc.Name}
	if nodeID != navigation.HubID {
		deps.stylesheet = true
		deps.docs = []string{navigation.NodeHref(nodeID)}
		return deps
	}
	// A hub page embeds the data of members linked with
	// xlink:show="embed" (the gallery wall), so it depends on their
	// documents too.
	if lbc := g.links.contexts[rc.Name]; lbc != nil {
		for _, e := range lbc.Edges {
			if e.Kind == navigation.EdgeMember && e.From == navigation.HubID && e.Show == string(xlink.ShowEmbed) {
				deps.docs = append(deps.docs, navigation.NodeHref(e.To))
			}
		}
	}
	return deps
}

// basePage produces the page's base content — the "basic functionality"
// of the paper's step 1, knowing nothing about navigation. Member pages
// render the node's data document (through the custom stylesheet when one
// is installed); hub pages render an empty titled shell that the
// navigation aspect fills.
func (g *generation) basePage(rc *navigation.ResolvedContext, nodeID string) (*xmldom.Document, error) {
	if nodeID == navigation.HubID {
		title := "Index of " + rc.Name
		html := xmldom.NewElement("html")
		head := html.AddElement("head")
		head.AddElement("title").AppendText(title)
		body := html.AddElement("body")
		body.AddElement("h1").AppendText(title)
		return xmldom.NewDocument(html), nil
	}

	dataDoc := g.dataDoc(nodeID)
	if dataDoc == nil {
		return nil, fmt.Errorf("core: no document %q", navigation.NodeHref(nodeID))
	}
	if g.stylesheet != nil {
		out, err := g.stylesheet.ApplyToDocument(dataDoc)
		if err != nil {
			return nil, fmt.Errorf("core: stylesheet on %s: %w", nodeID, err)
		}
		if out.Root().Name.Local != "html" {
			return nil, fmt.Errorf("core: stylesheet produced <%s>, want <html>", out.Root().Name.Local)
		}
		return out, nil
	}

	// Built-in presentation: title plus attribute table.
	title, names, values := shown(rc.Member(nodeID).Class, dataDoc)
	html := xmldom.NewElement("html")
	head := html.AddElement("head")
	head.AddElement("title").AppendText(title)
	body := html.AddElement("body")
	body.AddElement("h1").AppendText(title)
	table := body.AddElement("table")
	table.SetAttr("class", "attributes")
	for i, attr := range names {
		tr := table.AddElement("tr")
		tr.AddElement("td").AppendText(attr)
		tr.AddElement("td").AppendText(values[i])
	}
	return xmldom.NewDocument(html), nil
}

// dataDoc returns the data document of a node, or nil.
func (g *generation) dataDoc(nodeID string) *xmldom.Document {
	if d := g.docs[navigation.NodeHref(nodeID)]; d != nil {
		return d.tree
	}
	return nil
}

// shown reads a member out of its data document, as the member's node
// class shows it: the title, and the attributes in Node.AttrNames order
// with their values. A page reads its data from its generation's
// documents, never from the live store, so it is woven from that
// generation alone.
func shown(nc *navigation.NodeClass, doc *xmldom.Document) (title string, names, values []string) {
	root := doc.Root()
	value := func(name string) string {
		if e := root.FirstChildElement(name); e != nil {
			return e.StringValue()
		}
		return ""
	}
	if len(nc.AttrNames) > 0 {
		names = slices.Clone(nc.AttrNames)
		sort.Strings(names)
	} else {
		// ExportInstance writes one element per attribute, in name order.
		for _, e := range root.ChildElements() {
			names = append(names, e.Name.Local)
		}
	}
	values = make([]string, len(names))
	for i, name := range names {
		values[i] = value(name)
	}
	if nc.TitleAttr != "" {
		title = value(nc.TitleAttr)
	}
	if title == "" {
		title = root.AttrValue("id")
	}
	return title, names, values
}
