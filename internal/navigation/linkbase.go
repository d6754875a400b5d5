package navigation

import (
	"fmt"
	"strings"

	"repro/internal/xlink"
	"repro/internal/xmldom"
)

// Arcrole URIs used in generated linkbases: one per edge kind, so an
// XLink-aware agent can distinguish index membership from tour steps.
const (
	ArcroleMember = "urn:repro:nav:member"
	ArcroleUp     = "urn:repro:nav:up"
	ArcroleNext   = "urn:repro:nav:next"
	ArcrolePrev   = "urn:repro:nav:prev"
	ArcrolePage   = "urn:repro:nav:page"
	// RoleHub marks the local resource standing for a context's entry page.
	RoleHub = "urn:repro:nav:hub"
)

// ArcroleFor maps an edge kind to its arcrole URI.
func ArcroleFor(kind EdgeKind) string {
	switch kind {
	case EdgeMember:
		return ArcroleMember
	case EdgeUp:
		return ArcroleUp
	case EdgeNext:
		return ArcroleNext
	case EdgePrev:
		return ArcrolePrev
	case EdgePage:
		return ArcrolePage
	default:
		return "urn:repro:nav:" + string(kind)
	}
}

// KindForArcrole is the inverse of ArcroleFor ("" when not a nav arcrole).
func KindForArcrole(arcrole string) EdgeKind {
	switch arcrole {
	case ArcroleMember:
		return EdgeMember
	case ArcroleUp:
		return EdgeUp
	case ArcroleNext:
		return EdgeNext
	case ArcrolePrev:
		return EdgePrev
	case ArcrolePage:
		return EdgePage
	}
	if rest, ok := strings.CutPrefix(arcrole, "urn:repro:nav:"); ok {
		return EdgeKind(rest)
	}
	return ""
}

// NodeHref returns the document URI a node's data lives at, matching
// conceptual.ExportAll's naming.
func NodeHref(nodeID string) string { return nodeID + ".xml" }

// GenerateLinkbase renders a resolved model as an XLink linkbase document —
// the paper's links.xml (Figure 9), produced from the navigational model
// instead of written by hand. Every resolved context becomes one extended
// link: locators for its member documents, a local resource for its hub
// when the access structure has one, and one arc per navigation edge with
// the edge kind encoded in the arcrole.
func GenerateLinkbase(rm *ResolvedModel) *xmldom.Document {
	return BuildLinkbase(LinkbaseContexts(rm))
}

// LinkbaseContexts derives the linkbase form of every resolved context, in
// model order: what GenerateLinkbase renders, one extended link each.
func LinkbaseContexts(rm *ResolvedModel) []*LinkbaseContext {
	lcs := make([]*LinkbaseContext, 0, len(rm.Contexts))
	for _, rc := range rm.Contexts {
		lc := &LinkbaseContext{
			Name:       rc.Name,
			AccessKind: rc.Def.Access.Kind(),
			HasHub:     rc.Def.Access.HasHub(),
			NodeTitles: make(map[string]string, len(rc.Members)),
			Order:      make([]string, 0, len(rc.Members)),
			Edges:      rc.Edges(),
		}
		for _, m := range rc.Members {
			lc.Order = append(lc.Order, m.ID())
			lc.NodeTitles[m.ID()] = m.Title()
		}
		lcs = append(lcs, lc)
	}
	return lcs
}

// BuildLinkbase renders navigation contexts as an XLink linkbase document.
// GenerateLinkbase derives the contexts from a resolved model; package
// lift derives them from a tangled HTML site — both meet here.
func BuildLinkbase(contexts []*LinkbaseContext) *xmldom.Document {
	root := xmldom.NewElement("links")
	// Declare the xlink prefix once at the root.
	root.SetAttrNS("xmlns", "xlink", xlink.Namespace)

	for _, lc := range contexts {
		le := root.AddElement("context")
		le.SetAttrNS(xlink.Namespace, "type", string(xlink.TypeExtended))
		le.SetAttrNS(xlink.Namespace, "title", lc.Name)
		le.SetAttr("name", lc.Name)
		le.SetAttr("access", lc.AccessKind)

		if lc.HasHub {
			hub := le.AddElement("hub")
			hub.SetAttrNS(xlink.Namespace, "type", string(xlink.TypeResource))
			hub.SetAttrNS(xlink.Namespace, "label", HubID)
			hub.SetAttrNS(xlink.Namespace, "role", RoleHub)
			hub.SetAttrNS(xlink.Namespace, "title", "Index of "+lc.Name)
		}
		for _, id := range lc.Order {
			loc := le.AddElement("node")
			loc.SetAttrNS(xlink.Namespace, "type", string(xlink.TypeLocator))
			loc.SetAttrNS(xlink.Namespace, "href", NodeHref(id))
			loc.SetAttrNS(xlink.Namespace, "label", id)
			loc.SetAttrNS(xlink.Namespace, "title", lc.NodeTitles[id])
		}
		for _, e := range lc.Edges {
			show := e.Show
			if show == "" {
				show = "replace"
			}
			arc := le.AddElement("go")
			arc.SetAttrNS(xlink.Namespace, "type", string(xlink.TypeArc))
			arc.SetAttrNS(xlink.Namespace, "from", e.From)
			arc.SetAttrNS(xlink.Namespace, "to", e.To)
			arc.SetAttrNS(xlink.Namespace, "arcrole", ArcroleFor(e.Kind))
			arc.SetAttrNS(xlink.Namespace, "title", e.Label)
			arc.SetAttrNS(xlink.Namespace, "show", show)
			arc.SetAttrNS(xlink.Namespace, "actuate", string(xlink.ActuateOnRequest))
		}
	}
	doc := xmldom.NewDocument(root)
	doc.BaseURI = "links.xml"
	return doc
}

// LinkbaseText is a linkbase in its served form, the bytes xmldom's
// AppendIndented writes for BuildLinkbase's document, together with
// where each context's extended link begins in them. It holds no tree:
// Splice replaces contexts by their bytes alone. A LinkbaseText is never
// modified; Splice returns a new one.
type LinkbaseText struct {
	body []byte
	// at[k] is where context k's extended link begins in body, counting
	// the line break and indentation before it; the last entry is where
	// the line closing the root begins. Empty when there are no
	// contexts: the root is then written self-closing.
	at []int
}

// NewLinkbaseText builds the linkbase of contexts, reads it back with
// ParseLinkbase and keeps only its served bytes, at their exact size.
// It also returns the contexts as read back, in order.
func NewLinkbaseText(contexts []*LinkbaseContext) (LinkbaseText, []*LinkbaseContext, error) {
	buf, at, parsed, err := renderLinkbase(nil, nil, contexts)
	if err != nil {
		return LinkbaseText{}, nil, err
	}
	body := make([]byte, len(buf))
	copy(body, buf)
	return LinkbaseText{body: body, at: at}, parsed, nil
}

// renderLinkbase builds the linkbase of contexts, reads it back with
// ParseLinkbase, and appends its served bytes to dst and the bounds of
// its extended links, as the serializer reports them, to bounds. The
// tree lives only for the call.
func renderLinkbase(dst []byte, bounds []int, contexts []*LinkbaseContext) ([]byte, []int, []*LinkbaseContext, error) {
	doc := BuildLinkbase(contexts)
	parsed, err := ParseLinkbase(doc)
	if err != nil {
		return nil, nil, nil, err
	}
	dst, bounds = doc.AppendIndentedSplit(dst, bounds)
	return dst, bounds, parsed, nil
}

// Bytes returns the served links.xml. The slice is shared: callers must
// not modify it.
func (t LinkbaseText) Bytes() []byte { return t.body }

// Len returns how many contexts the linkbase holds.
func (t LinkbaseText) Len() int { return max(len(t.at)-1, 0) }

// Link returns context k's extended link exactly as it appears in
// links.xml, with the line break and indentation before it.
func (t LinkbaseText) Link(k int) []byte { return t.body[t.at[k]:t.at[k+1]] }

// Splice returns the linkbase with the contexts at the changed
// positions replaced. contexts is the whole new context list, as long
// as the linkbase's and in its order; changed lists, in increasing
// order, the positions whose contexts differ from those the linkbase was
// made from. Each changed context is built alone, read back with
// ParseLinkbase and serialized into one scratch buffer; its extended
// link is then copied, between runs of the unchanged contexts' bytes,
// into a new body of exact size. An extended link's bytes depend on its
// context alone — the root declares the xlink prefix, so the serializer
// synthesizes none per context — so the result is what NewLinkbaseText
// makes of contexts. Splice also returns the changed contexts as read
// back, in the order of changed.
func (t LinkbaseText) Splice(contexts []*LinkbaseContext, changed []int) (LinkbaseText, []*LinkbaseContext, error) {
	if len(changed) == 0 {
		return t, nil, nil
	}
	if len(contexts) != t.Len() {
		return LinkbaseText{}, nil, fmt.Errorf("navigation: splicing %d contexts into a linkbase of %d", len(contexts), t.Len())
	}
	for k, i := range changed {
		if i < 0 || i >= len(contexts) || (k > 0 && i <= changed[k-1]) {
			return LinkbaseText{}, nil, fmt.Errorf("navigation: splice positions %v out of order or range", changed)
		}
	}
	// Each context rendered alone comes with the root's opening and
	// closing lines around it.
	frame := t.at[0] + len(t.body) - t.at[len(t.at)-1]
	size := 0
	for _, i := range changed {
		size += frame + len(t.Link(i))
	}
	scratch := make([]byte, 0, size)
	// spans holds where each changed context's extended link begins and
	// ends in scratch, as offsets: scratch may move while it grows.
	spans := make([]int, 0, 2*len(changed))
	parsed := make([]*LinkbaseContext, len(changed))
	var bounds []int
	grown := 0
	for k, i := range changed {
		var one []*LinkbaseContext
		var err error
		scratch, bounds, one, err = renderLinkbase(scratch, bounds[:0], contexts[i:i+1])
		if err != nil {
			return LinkbaseText{}, nil, err
		}
		spans = append(spans, bounds[0], bounds[1])
		parsed[k] = one[0]
		grown += bounds[1] - bounds[0] - len(t.Link(i))
	}

	body := make([]byte, 0, len(t.body)+grown)
	at := make([]int, len(t.at))
	// copied is how far t.body has been copied, j the first context whose
	// offset is not yet set, and shift how much the changed contexts
	// copied so far grew.
	copied, j, shift := 0, 0, 0
	for k, i := range changed {
		for ; j <= i; j++ {
			at[j] = t.at[j] + shift
		}
		link := scratch[spans[2*k]:spans[2*k+1]]
		body = append(body, t.body[copied:t.at[i]]...)
		body = append(body, link...)
		shift += len(link) - len(t.Link(i))
		copied = t.at[i+1]
	}
	for ; j < len(at); j++ {
		at[j] = t.at[j] + shift
	}
	body = append(body, t.body[copied:]...)
	return LinkbaseText{body: body, at: at}, parsed, nil
}

// ContextFromExtended reconstructs a context's name, access kind and edges
// from one extended link of a linkbase document generated by
// GenerateLinkbase. It is the consuming half of the round trip: the weaver
// reads navigation back out of links.xml rather than out of the model,
// proving the file really carries the whole navigational aspect.
type LinkbaseContext struct {
	Name       string
	AccessKind string
	// HasHub records whether the context has an entry (index) page,
	// represented in the linkbase as a local resource labelled HubID.
	HasHub bool
	// NodeTitles maps member node IDs to their locator titles.
	NodeTitles map[string]string
	// Order lists member node IDs in locator (traversal) order.
	Order []string
	Edges []Edge
}

// ParseLinkbase extracts the navigation contexts encoded in a linkbase
// document produced by GenerateLinkbase. Titles read as the document's
// serialization carries them (xmldom.ReadBack), so a tree built in
// memory reads back the contexts its served bytes do.
func ParseLinkbase(doc *xmldom.Document) ([]*LinkbaseContext, error) {
	ls, err := xlink.FindLinks(doc)
	if err != nil {
		return nil, err
	}
	var out []*LinkbaseContext
	for _, x := range ls.Extendeds {
		lc := &LinkbaseContext{
			Name:       x.Element.AttrValue("name"),
			AccessKind: x.Element.AttrValue("access"),
			NodeTitles: map[string]string{},
		}
		if lc.Name == "" {
			lc.Name = x.Title
		}
		for _, r := range x.Resources {
			if r.Label == HubID {
				lc.HasHub = true
			}
		}
		for _, loc := range x.Locators {
			id := loc.Label
			lc.NodeTitles[id] = xmldom.ReadBack(loc.Title)
			lc.Order = append(lc.Order, id)
		}
		for _, a := range x.Arcs() {
			kind := KindForArcrole(a.Arcrole)
			if kind == "" {
				return nil, fmt.Errorf("navigation: linkbase context %q: arc with non-nav arcrole %q", lc.Name, a.Arcrole)
			}
			lc.Edges = append(lc.Edges, Edge{
				From:  a.From.Label,
				To:    a.To.Label,
				Kind:  kind,
				Label: xmldom.ReadBack(a.Title),
				Show:  string(a.Show),
			})
		}
		out = append(out, lc)
	}
	return out, nil
}
