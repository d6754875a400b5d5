package navigation

import (
	"bytes"
	"fmt"
	"slices"
	"unicode/utf8"

	"repro/internal/xlink"
	"repro/internal/xmldom"
)

// LinkbaseText is a linkbase in its served form, the bytes xmldom's
// AppendIndented writes for BuildLinkbase's document, held as one byte
// slice per context's extended link. It holds no tree: Splice replaces
// contexts by their bytes alone. A LinkbaseText is never modified;
// Splice returns a new one, which shares the links it did not replace.
type LinkbaseText struct {
	// links[k] is context k's extended link, with the line break and
	// indentation before it.
	links [][]byte
	// body is the whole linkbase when the links are parts of it, as
	// NewLinkbaseText writes them, and nil for a spliced text, whose
	// Bytes joins its links. With no contexts it is the self-closing
	// root.
	body []byte
}

// The frame around the extended links of a served linkbase: the XML
// declaration and the root, which declares the xlink prefix once for
// every link, so that no extended link declares one of its own.
const (
	linkbaseOpen  = `<?xml version="1.0" encoding="UTF-8"?>` + "\n" + `<links xmlns:xlink="` + xlink.Namespace + `"`
	linkbaseClose = "\n</links>\n"
)

// NewLinkbaseText writes the linkbase of contexts in one pass from the
// contexts, with no tree in between, into one body of exact size, and
// cuts each context's extended link out of it: the bytes
// BuildLinkbase(contexts).AppendIndentedSplit writes, split where it
// splits them. linkLen sizes the body, so each extended link is written
// once. It also returns the contexts as ParseLinkbase reads
// them back out of that document, in order — each context that reads
// back as it is, itself (see readBack) — and fails where ParseLinkbase
// would, with its error.
func NewLinkbaseText(contexts []*LinkbaseContext) (LinkbaseText, []*LinkbaseContext, error) {
	var parsed []*LinkbaseContext
	if len(contexts) > 0 {
		parsed = make([]*LinkbaseContext, len(contexts))
	}
	// The XLink processor reads every extended link before
	// ParseLinkbase looks at any arcrole, so its error comes first.
	var badRole error
	count := map[string]int{}
	for i, lc := range contexts {
		back, bad, err := readBack(lc, count)
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
	for _, lc := range contexts {
		size += linkLen(lc)
	}
	body := make([]byte, 0, size)
	links := make([][]byte, len(contexts))
	body = append(body, linkbaseOpen+">"...)
	for k, lc := range contexts {
		from := len(body)
		body = appendLink(body, lc)
		links[k] = body[from:len(body):len(body)]
	}
	body = append(body, linkbaseClose...)
	return LinkbaseText{links: links, body: body}, parsed, nil
}

// Bytes returns the served links.xml. For a text NewLinkbaseText wrote
// it is the body the links are parts of, and the slice is shared:
// callers must not modify it. For a spliced text each call joins the
// links into a new body of exact size.
func (t LinkbaseText) Bytes() []byte {
	if t.body != nil {
		return t.body
	}
	size := len(linkbaseOpen) + len(">") + len(linkbaseClose)
	for _, l := range t.links {
		size += len(l)
	}
	body := append(make([]byte, 0, size), linkbaseOpen+">"...)
	for _, l := range t.links {
		body = append(body, l...)
	}
	return append(body, linkbaseClose...)
}

// Len returns how many contexts the linkbase holds.
func (t LinkbaseText) Len() int { return len(t.links) }

// Link returns context k's extended link exactly as it appears in
// links.xml, with the line break and indentation before it.
func (t LinkbaseText) Link(k int) []byte { return t.links[k] }

// Equal reports whether t and u serve the same bytes: the same links,
// compared link by link. A link two texts share is not read.
func (t LinkbaseText) Equal(u LinkbaseText) bool {
	return slices.EqualFunc(t.links, u.links, func(l, m []byte) bool {
		return len(l) == len(m) && (len(l) == 0 || &l[0] == &m[0] || bytes.Equal(l, m))
	})
}

// Splice returns the linkbase with the contexts at the changed
// positions replaced. contexts is the whole new context list, as long
// as the linkbase's and in its order; changed lists, in increasing
// order, the positions whose contexts differ from those the linkbase was
// made from. Only the changed contexts are written: each is measured
// with linkLen and written once, into one buffer of exact size for all
// of them, and the unchanged contexts' links are shared, not copied. An
// extended link's bytes depend on its context alone, so the result
// serves what NewLinkbaseText makes of contexts. Splice also returns
// the changed contexts as ParseLinkbase reads them back, in the order
// of changed — each that reads back as it is, itself — and fails with
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
	size := 0
	count := map[string]int{}
	for k, i := range changed {
		back, badRole, err := readBack(contexts[i], count)
		if err == nil {
			err = badRole
		}
		if err != nil {
			return LinkbaseText{}, nil, err
		}
		parsed[k] = back
		size += linkLen(contexts[i])
	}

	buf := make([]byte, 0, size)
	links := slices.Clone(t.links)
	for _, i := range changed {
		from := len(buf)
		buf = appendLink(buf, contexts[i])
		links[i] = buf[from:len(buf):len(buf)]
	}
	return LinkbaseText{links: links}, parsed, nil
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

// attrLen returns how many bytes appendAttr appends.
func attrLen(name, value string) int {
	return len(` =""`) + len(name) + xmldom.AttrValueLen(value)
}

// The lengths of appendLink's elements with every attribute value that
// varies from one context to the next left empty.
var (
	contextFixed = len("\n  <context") + attrLen("xlink:type", string(xlink.TypeExtended)) +
		attrLen("xlink:title", "") + attrLen("name", "") + attrLen("access", "")
	hubFixed = len("\n    <hub") + attrLen("xlink:type", string(xlink.TypeResource)) +
		attrLen("xlink:label", HubID) + attrLen("xlink:role", RoleHub) + attrLen("xlink:title", "Index of ") + len("/>")
	nodeFixed = len("\n    <node") + attrLen("xlink:type", string(xlink.TypeLocator)) +
		attrLen("xlink:href", ".xml") + attrLen("xlink:label", "") + attrLen("xlink:title", "") + len("/>")
	arcFixed = len("\n    <go") + attrLen("xlink:type", string(xlink.TypeArc)) +
		attrLen("xlink:from", "") + attrLen("xlink:to", "") + attrLen("xlink:arcrole", "") +
		attrLen("xlink:title", "") + attrLen("xlink:show", "") +
		attrLen("xlink:actuate", string(xlink.ActuateOnRequest)) + len("/>")
)

// linkLen returns how many bytes appendLink appends for lc, without
// writing them: appendLink's structure, with each value's escaped
// length counted by xmldom.AttrValueLen.
func linkLen(lc *LinkbaseContext) int {
	name := xmldom.AttrValueLen(lc.Name)
	n := contextFixed + 2*name + xmldom.AttrValueLen(lc.AccessKind)
	if !lc.HasHub && len(lc.Order) == 0 && len(lc.Edges) == 0 {
		return n + len("/>")
	}
	n += len(">") + len("\n  </context>")
	if lc.HasHub {
		n += hubFixed + name
	}
	for _, id := range lc.Order {
		n += nodeFixed + 2*xmldom.AttrValueLen(id) + xmldom.AttrValueLen(lc.NodeTitles[id])
	}
	for _, e := range lc.Edges {
		n += arcFixed + xmldom.AttrValueLen(e.From) + xmldom.AttrValueLen(e.To) +
			xmldom.AttrValueLen(ArcroleFor(e.Kind)) + xmldom.AttrValueLen(e.Label) + xmldom.AttrValueLen(arcShow(e))
	}
	return n
}

// readBack returns lc as ParseLinkbase reads it back out of the extended
// link BuildLinkbase makes of it, without making one: names, access kind
// and member ids as they are, locator titles and arc labels as
// xmldom.ReadBack reads them, each arc's show defaulted, and each arc
// expanded as xlink.Extended.Arcs expands it, over every endpoint for an
// empty label and once for each endpoint a label names. Empty lists stay
// nil. When that is lc itself — reflect.DeepEqual to it — readBack
// returns lc and copies nothing, as xmldom.ReadBack returns a valid
// string; it builds a copy only for a context that reads back otherwise:
// one with invalid UTF-8 in a title or label, titles keyed by other ids
// than its members, an arc end that selects no endpoint, several, or one
// under another label (an empty label, a repeated member id, a member
// named like the hub), an arc without an explicit show, or an empty but
// non-nil member or edge list. err is the XLink processor's error for an
// invalid show or a label that names no endpoint; badRole is
// ParseLinkbase's for an arc whose arcrole names no edge kind, which it
// reports only once every link has passed the processor. count is
// scratch space, cleared on entry, that readBack counts each member id's
// locators in.
func readBack(lc *LinkbaseContext, count map[string]int) (back *LinkbaseContext, badRole, err error) {
	for _, e := range lc.Edges {
		if show := xlink.Show(arcShow(e)); !show.Valid() {
			return nil, nil, fmt.Errorf("xlink: arc <links/context/go>: invalid xlink:show %q", show)
		}
	}
	// The link's endpoints are its locators, labelled by member id, then
	// its hub; count holds how many locators carry each label.
	clear(count)
	for _, id := range lc.Order {
		count[id]++
	}
	endpoints := len(lc.Order)
	if lc.HasHub {
		endpoints++
	}
	// named counts the endpoints an arc's label selects: every one when
	// the label is empty.
	named := func(label string) int {
		if label == "" {
			return endpoints
		}
		n := count[label]
		if lc.HasHub && label == HubID {
			n++
		}
		return n
	}
	// asIs reports whether an arc end whose label selects n endpoints
	// reads back as it is: one endpoint, under that label.
	asIs := func(label string, n int) bool { return n == 1 && endpointLabel(lc, label, 0) == label }

	// same holds while lc reads back as it is: titles keyed by exactly
	// its member ids, each valid UTF-8, and lists nil when empty.
	same := lc.NodeTitles != nil && len(lc.NodeTitles) == len(count) &&
		(lc.Order == nil || len(lc.Order) > 0) && (lc.Edges == nil || len(lc.Edges) > 0)
	for i := 0; same && i < len(lc.Order); i++ {
		title, ok := lc.NodeTitles[lc.Order[i]]
		same = ok && utf8.ValidString(title)
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
		same = same && asIs(e.From, from) && asIs(e.To, to) && e.Show != "" && utf8.ValidString(e.Label) &&
			e.Kind != "" && KindForArcrole(ArcroleFor(e.Kind)) == e.Kind
	}
	if same {
		return lc, nil, nil
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
