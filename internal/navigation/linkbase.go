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
// document produced by GenerateLinkbase.
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
			lc.NodeTitles[id] = loc.Title
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
				Label: a.Title,
				Show:  string(a.Show),
			})
		}
		out = append(out, lc)
	}
	return out, nil
}
