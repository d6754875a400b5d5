package navigation

import (
	"fmt"
	"slices"

	"repro/internal/xlink"
	"repro/internal/xmldom"
)

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

// The frame around the extended links of a served linkbase: the XML
// declaration and the root, which declares the xlink prefix once for
// every link, so that no extended link declares one of its own.
const (
	linkbaseOpen  = `<?xml version="1.0" encoding="UTF-8"?>` + "\n" + `<links xmlns:xlink="` + xlink.Namespace + `"`
	linkbaseClose = "\n</links>\n"
)

// NewLinkbaseText writes the linkbase of contexts in one pass from the
// contexts, with no tree in between, into a body of exact size: the
// bytes BuildLinkbase(contexts).AppendIndentedSplit writes, split where
// it splits them. It also returns the contexts as ParseLinkbase reads
// them back out of that document, in order, and fails where
// ParseLinkbase would, with its error.
func NewLinkbaseText(contexts []*LinkbaseContext) (LinkbaseText, []*LinkbaseContext, error) {
	var parsed []*LinkbaseContext
	if len(contexts) > 0 {
		parsed = make([]*LinkbaseContext, len(contexts))
	}
	// The XLink processor reads every extended link before
	// ParseLinkbase looks at any arcrole, so its error comes first.
	var badRole error
	for i, lc := range contexts {
		back, bad, err := readBack(lc)
		if err != nil {
			return LinkbaseText{}, nil, err
		}
		if badRole == nil {
			badRole = bad
		}
		parsed[i] = back
	}
	if badRole != nil {
		return LinkbaseText{}, nil, badRole
	}
	if len(contexts) == 0 {
		body := append(make([]byte, 0, len(linkbaseOpen)+3), linkbaseOpen+"/>\n"...)
		return LinkbaseText{body: body}, nil, nil
	}

	size := len(linkbaseOpen) + len(">") + len(linkbaseClose)
	var scratch []byte
	for _, lc := range contexts {
		scratch = appendLink(scratch[:0], lc)
		size += len(scratch)
	}
	body := make([]byte, 0, size)
	at := make([]int, 0, len(contexts)+1)
	body = append(body, linkbaseOpen+">"...)
	for _, lc := range contexts {
		at = append(at, len(body))
		body = appendLink(body, lc)
	}
	at = append(at, len(body))
	body = append(body, linkbaseClose...)
	return LinkbaseText{body: body, at: at}, parsed, nil
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
// made from. Each changed context is written once to measure it and
// once into a new body of exact size, between runs of the unchanged
// contexts' bytes, which are copied. An extended link's bytes depend on
// its context alone, so the result is what NewLinkbaseText makes of
// contexts. Splice also returns the changed contexts as ParseLinkbase
// reads them back, in the order of changed, and fails with
// ParseLinkbase's error for the first changed context it rejects.
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
	parsed := make([]*LinkbaseContext, len(changed))
	size := len(t.body)
	var scratch []byte
	for k, i := range changed {
		back, badRole, err := readBack(contexts[i])
		if err == nil {
			err = badRole
		}
		if err != nil {
			return LinkbaseText{}, nil, err
		}
		parsed[k] = back
		scratch = appendLink(scratch[:0], contexts[i])
		size += len(scratch) - len(t.Link(i))
	}

	body := make([]byte, 0, size)
	at := make([]int, len(t.at))
	// copied is how far t.body has been copied, j the first context whose
	// offset is not yet set, and shift how far the bytes copied last
	// moved.
	copied, j, shift := 0, 0, 0
	for _, i := range changed {
		for ; j <= i; j++ {
			at[j] = t.at[j] + shift
		}
		body = append(body, t.body[copied:t.at[i]]...)
		body = appendLink(body, contexts[i])
		copied = t.at[i+1]
		shift = len(body) - copied
	}
	for ; j < len(at); j++ {
		at[j] = t.at[j] + shift
	}
	body = append(body, t.body[copied:]...)
	return LinkbaseText{body: body, at: at}, parsed, nil
}

// appendLink appends lc's extended link to b, preceded by its line break
// and indentation, exactly as the serializer writes BuildLinkbase's
// element for it inside the root, and returns the extended slice. Every
// attribute value goes through xmldom's escaper.
func appendLink(b []byte, lc *LinkbaseContext) []byte {
	b = append(b, "\n  <context"...)
	b = appendAttr(b, "xlink:type", string(xlink.TypeExtended))
	b = appendAttr(b, "xlink:title", lc.Name)
	b = appendAttr(b, "name", lc.Name)
	b = appendAttr(b, "access", lc.AccessKind)
	if !lc.HasHub && len(lc.Order) == 0 && len(lc.Edges) == 0 {
		return append(b, "/>"...)
	}
	b = append(b, '>')
	if lc.HasHub {
		b = append(b, "\n    <hub"...)
		b = appendAttr(b, "xlink:type", string(xlink.TypeResource))
		b = appendAttr(b, "xlink:label", HubID)
		b = appendAttr(b, "xlink:role", RoleHub)
		// The title "Index of " + lc.Name, escaped without building it.
		b = append(b, ` xlink:title="Index of `...)
		b = xmldom.AppendAttrValue(b, lc.Name)
		b = append(b, `"/>`...)
	}
	for _, id := range lc.Order {
		b = append(b, "\n    <node"...)
		b = appendAttr(b, "xlink:type", string(xlink.TypeLocator))
		// NodeHref(id), escaped without building it: the suffix is
		// ASCII, so it neither needs escaping nor completes a byte
		// sequence of id's.
		b = append(b, ` xlink:href="`...)
		b = xmldom.AppendAttrValue(b, id)
		b = append(b, `.xml"`...)
		b = appendAttr(b, "xlink:label", id)
		b = appendAttr(b, "xlink:title", lc.NodeTitles[id])
		b = append(b, "/>"...)
	}
	for _, e := range lc.Edges {
		b = append(b, "\n    <go"...)
		b = appendAttr(b, "xlink:type", string(xlink.TypeArc))
		b = appendAttr(b, "xlink:from", e.From)
		b = appendAttr(b, "xlink:to", e.To)
		b = appendAttr(b, "xlink:arcrole", ArcroleFor(e.Kind))
		b = appendAttr(b, "xlink:title", e.Label)
		b = appendAttr(b, "xlink:show", arcShow(e))
		b = appendAttr(b, "xlink:actuate", string(xlink.ActuateOnRequest))
		b = append(b, "/>"...)
	}
	return append(b, "\n  </context>"...)
}

// appendAttr appends ` name="value"`, escaping the value.
func appendAttr(b []byte, name, value string) []byte {
	b = append(b, ' ')
	b = append(b, name...)
	b = append(b, `="`...)
	b = xmldom.AppendAttrValue(b, value)
	return append(b, '"')
}

// readBack returns lc as ParseLinkbase reads it back out of the extended
// link BuildLinkbase makes of it, without making one: names, access kind
// and member ids as they are, locator titles and arc labels as
// xmldom.ReadBack reads them, each arc's show defaulted, and each arc
// expanded as xlink.Extended.Arcs expands it, over every endpoint for an
// empty label and once for each endpoint a label names. Empty lists stay
// nil. err is the XLink processor's error for an invalid show or a label
// that names no endpoint; badRole is ParseLinkbase's for an arc whose
// arcrole names no edge kind, which it reports only once every link has
// passed the processor.
func readBack(lc *LinkbaseContext) (back *LinkbaseContext, badRole, err error) {
	for _, e := range lc.Edges {
		if show := xlink.Show(arcShow(e)); !show.Valid() {
			return nil, nil, fmt.Errorf("xlink: arc <links/context/go>: invalid xlink:show %q", show)
		}
	}
	back = &LinkbaseContext{
		Name:       lc.Name,
		AccessKind: lc.AccessKind,
		HasHub:     lc.HasHub,
		NodeTitles: make(map[string]string, len(lc.Order)),
	}
	if len(lc.Order) > 0 {
		back.Order = slices.Clone(lc.Order)
	}
	for _, id := range lc.Order {
		back.NodeTitles[id] = xmldom.ReadBack(lc.NodeTitles[id])
	}
	// The link's endpoints are its locators, labelled by member id, then
	// its hub. repeats counts the locators of each label when a member
	// id repeats; otherwise each label names one locator at most.
	endpoints := len(lc.Order)
	if lc.HasHub {
		endpoints++
	}
	var repeats map[string]int
	if len(back.NodeTitles) < len(lc.Order) {
		repeats = make(map[string]int, len(back.NodeTitles))
		for _, id := range lc.Order {
			repeats[id]++
		}
	}
	// named counts the endpoints an arc's label selects: every one when
	// the label is empty.
	named := func(label string) int {
		if label == "" {
			return endpoints
		}
		n := 0
		if repeats != nil {
			n = repeats[label]
		} else if _, ok := back.NodeTitles[label]; ok {
			n = 1
		}
		if lc.HasHub && label == HubID {
			n++
		}
		return n
	}
	arcs := 0
	for _, e := range lc.Edges {
		from, to := named(e.From), named(e.To)
		if e.From != "" && from == 0 {
			return nil, nil, fmt.Errorf("xlink: arc in <links/context>: from label %q matches no locator or resource", e.From)
		}
		if e.To != "" && to == 0 {
			return nil, nil, fmt.Errorf("xlink: arc in <links/context>: to label %q matches no locator or resource", e.To)
		}
		arcs += from * to
	}
	if arcs == 0 {
		return back, nil, nil
	}
	back.Edges = make([]Edge, 0, arcs)
	for _, e := range lc.Edges {
		from, to := named(e.From), named(e.To)
		if from*to == 0 {
			continue
		}
		role := ArcroleFor(e.Kind)
		kind := KindForArcrole(role)
		if kind == "" {
			return nil, nonNavArcrole(lc.Name, role), nil
		}
		arc := Edge{Kind: kind, Label: xmldom.ReadBack(e.Label), Show: arcShow(e)}
		for f := 0; f < from; f++ {
			arc.From = endpointLabel(lc, e.From, f)
			for t := 0; t < to; t++ {
				arc.To = endpointLabel(lc, e.To, t)
				back.Edges = append(back.Edges, arc)
			}
		}
	}
	return back, nil, nil
}

// endpointLabel returns the label of the i-th endpoint an arc's label
// selects in lc's extended link: the label itself, or for an empty
// label, the i-th endpoint's.
func endpointLabel(lc *LinkbaseContext, label string, i int) string {
	switch {
	case label != "":
		return label
	case i < len(lc.Order):
		return lc.Order[i]
	}
	return HubID
}

// nonNavArcrole is ParseLinkbase's error for an arc of context whose
// arcrole names no edge kind.
func nonNavArcrole(context, arcrole string) error {
	return fmt.Errorf("navigation: linkbase context %q: arc with non-nav arcrole %q", context, arcrole)
}
