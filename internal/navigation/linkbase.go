package navigation

import (
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
	lcs := make([]*LinkbaseContext, len(rm.Contexts))
	for i, rc := range rm.Contexts {
		lcs[i] = LinkbaseContextOf(rc)
	}
	return lcs
}

// LinkbaseContextOf derives the linkbase form of one resolved context,
// its edges included.
func LinkbaseContextOf(rc *ResolvedContext) *LinkbaseContext {
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
	return lc
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
			arc := le.AddElement("go")
			arc.SetAttrNS(xlink.Namespace, "type", string(xlink.TypeArc))
			arc.SetAttrNS(xlink.Namespace, "from", e.From)
			arc.SetAttrNS(xlink.Namespace, "to", e.To)
			arc.SetAttrNS(xlink.Namespace, "arcrole", ArcroleFor(e.Kind))
			arc.SetAttrNS(xlink.Namespace, "title", e.Label)
			arc.SetAttrNS(xlink.Namespace, "show", arcShow(e))
			arc.SetAttrNS(xlink.Namespace, "actuate", string(xlink.ActuateOnRequest))
		}
	}
	doc := xmldom.NewDocument(root)
	doc.BaseURI = "links.xml"
	return doc
}

// arcShow is the xlink:show an edge's arc carries: the edge's own, or
// "replace" when it names none.
func arcShow(e Edge) string {
	if e.Show == "" {
		return string(xlink.ShowReplace)
	}
	return e.Show
}

// LinkbaseContext is one context in its linkbase form, one extended link
// of links.xml: its name, access kind, members and edges. The weaver
// reads contexts as the markup carries them, never out of the model:
// ParseLinkbase reads them out of a linkbase document, and
// NewLinkbaseText returns them as that markup reads back.
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
				return nil, nonNavArcrole(lc.Name, a.Arcrole)
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
