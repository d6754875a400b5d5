package core

import (
	"fmt"

	"repro/internal/aspect"
	"repro/internal/navigation"
	"repro/internal/xlink"
	"repro/internal/xmldom"
)

// AspectName is the registered name of the navigation aspect.
const AspectName = "navigation"

// NavigationAspect builds the aspect that carries the whole navigational
// concern: around advice on every page render that reads the traversal
// graph out of the linkbase (links.xml) of the generation the page is
// woven from — the join point's Target — and injects the access-
// structure markup — the index lists, Index/Next/Previous anchors and
// context-switch links of the paper's Figures 3–4 — into the woven page.
//
// The base program never mentions navigation; delete this aspect and the
// site still builds, just without links (the paper's "separation"
// demonstrated by subtraction).
func NavigationAspect() *aspect.Aspect {
	a := aspect.NewAspect(AspectName)
	pc := aspect.MustCompilePointcut("kind(page.render)")
	a.AroundAdvice("inject-navigation", pc, 0, func(inv *aspect.Invocation) (any, error) {
		g, ok := inv.JP.Target.(*generation)
		if !ok {
			return nil, fmt.Errorf("core: navigation aspect: page woven from %T, not an App generation", inv.JP.Target)
		}
		result, err := inv.Proceed()
		if err != nil {
			return nil, err
		}
		doc, ok := result.(*xmldom.Document)
		if !ok {
			return nil, fmt.Errorf("core: navigation aspect: unexpected page type %T", result)
		}
		ctxName := inv.JP.Attr("context")
		nodeID := inv.JP.Name
		if err := g.injectNavigation(doc, ctxName, nodeID); err != nil {
			return nil, err
		}
		return doc, nil
	})
	return a
}

// findBody locates the page's body element.
func findBody(doc *xmldom.Document) *xmldom.Element {
	root := doc.Root()
	if root == nil {
		return nil
	}
	if root.Name.Local == "body" {
		return root
	}
	return root.FirstChildElement("body")
}

// injectNavigation appends the navigation markup for (context, node) to
// the page body, driven entirely by the linkbase.
func (g *generation) injectNavigation(doc *xmldom.Document, ctxName, nodeID string) error {
	lbc := g.links.contexts[ctxName]
	if lbc == nil {
		return fmt.Errorf("core: linkbase has no context %q", ctxName)
	}
	body := findBody(doc)
	if body == nil {
		return fmt.Errorf("core: page for %s/%s has no body element", ctxName, nodeID)
	}

	nav := xmldom.NewElement("div")
	nav.SetAttr("class", "navigation")

	if nodeID == navigation.HubID {
		// Index page: the member list (Figure 3's set of anchors).
		// Edges with xlink:show="embed" inline the member where the
		// link would stand, per XLink behaviour semantics — turning
		// the index into a gallery wall.
		ul := nav.AddElement("ul")
		ul.SetAttr("class", "nav-index")
		for _, e := range lbc.Edges {
			if e.Kind != navigation.EdgeMember || e.From != navigation.HubID {
				continue
			}
			li := ul.AddElement("li")
			if e.Show == string(xlink.ShowEmbed) {
				g.embedMember(li, ctxName, e.To)
				continue
			}
			anchor := li.AddElement("a")
			anchor.SetAttr("class", "nav-member")
			anchor.SetAttr("href", href(ctxName, e.To))
			applyShow(anchor, e.Show)
			anchor.AppendText(e.Label)
		}
	} else {
		// Member page: Index / Previous / Next anchors in a fixed,
		// deterministic order (the two bold lines of Figure 4 are the
		// Next/Previous pair the IGT adds).
		appendEdgeAnchor(nav, lbc, ctxName, nodeID, navigation.EdgeUp, "nav-up")
		appendEdgeAnchor(nav, lbc, ctxName, nodeID, navigation.EdgePrev, "nav-prev")
		appendEdgeAnchor(nav, lbc, ctxName, nodeID, navigation.EdgeNext, "nav-next")
		// Member-kind edges leaving a member node are promoted
		// landmarks (an adaptive tour's hot nodes): linked from every
		// page of the context, per Vinson's landmark guidelines. The
		// hand-authored structures never emit these.
		for _, e := range lbc.Edges {
			if e.From == nodeID && e.Kind == navigation.EdgeMember {
				appendAnchor(nav, "nav-hot", ctxName, e)
			}
		}
	}
	body.AppendChild(nav)

	if nodeID != navigation.HubID {
		if others := g.otherContexts(ctxName, nodeID); len(others) > 0 {
			div := xmldom.NewElement("div")
			div.SetAttr("class", "contexts")
			div.AddElement("span").AppendText("Also in:")
			for _, other := range others {
				anchor := div.AddElement("a")
				anchor.SetAttr("class", "nav-context")
				anchor.SetAttr("href", href(other, nodeID))
				anchor.AppendText(other)
			}
			body.AppendChild(div)
		}
	}

	// Landmarks: entry points reachable from every page (OOHDM's
	// landmark primitive — the global navigation bar).
	if landmarks := g.resolved.Landmarks; len(landmarks) > 0 {
		div := xmldom.NewElement("div")
		div.SetAttr("class", "landmarks")
		for _, lm := range landmarks {
			anchor := div.AddElement("a")
			anchor.SetAttr("class", "nav-landmark")
			anchor.SetAttr("href", href(lm.Name, lm.EntryNode()))
			anchor.AppendText(lm.Name)
		}
		body.AppendChild(div)
	}
	return nil
}

// appendEdgeAnchor appends one anchor for the first edge of the given
// kind leaving nodeID, if any, honouring the edge's show behaviour.
func appendEdgeAnchor(nav *xmldom.Element, lbc *navigation.LinkbaseContext, ctxName, nodeID string, kind navigation.EdgeKind, class string) {
	for _, e := range lbc.Edges {
		if e.From == nodeID && e.Kind == kind {
			appendAnchor(nav, class, ctxName, e)
			return
		}
	}
}

// appendAnchor renders one edge as an anchor of the given class,
// honouring the edge's show behaviour.
func appendAnchor(nav *xmldom.Element, class, ctxName string, e navigation.Edge) {
	anchor := nav.AddElement("a")
	anchor.SetAttr("class", class)
	anchor.SetAttr("href", href(ctxName, e.To))
	applyShow(anchor, e.Show)
	anchor.AppendText(e.Label)
}

// applyShow maps an XLink show value onto HTML anchor behaviour:
// "new" opens a separate presentation context.
func applyShow(anchor *xmldom.Element, show string) {
	if show == string(xlink.ShowNew) {
		anchor.SetAttr("target", "_blank")
	}
}

// embedMember inlines a member node's content where its link would be —
// the agent-side realization of xlink:show="embed".
func (g *generation) embedMember(parent *xmldom.Element, ctxName, nodeID string) {
	div := parent.AddElement("div")
	div.SetAttr("class", "embed")
	div.SetAttr("data-node", nodeID)
	rc := g.resolved.Context(ctxName)
	if rc == nil {
		return
	}
	node := rc.Member(nodeID)
	if node == nil {
		return
	}
	div.AddElement("h2").AppendText(node.Title())
	dl := div.AddElement("dl")
	for _, attr := range node.AttrNames() {
		dl.AddElement("dt").AppendText(attr)
		dl.AddElement("dd").AppendText(node.Attr(attr))
	}
}

// otherContexts lists the other linkbase contexts containing the node,
// sorted for deterministic output — the paper's §2 context switch ("the
// same painting through the pictorial movement"). The linkbase indexes
// its contexts by member, so this is one lookup.
func (g *generation) otherContexts(current, nodeID string) []string {
	in := g.links.containing[nodeID]
	out := make([]string, 0, len(in))
	for _, name := range in {
		if name != current {
			out = append(out, name)
		}
	}
	return out
}
