package xlink

import (
	"fmt"

	"repro/internal/xmldom"
)

// Simple is a simple link: an element carrying xlink:href (and optionally
// the behaviour and semantic attributes) that links its own content to one
// remote resource, like an HTML <a>.
type Simple struct {
	// Element is the linking element.
	Element *xmldom.Element
	// Href is the remote resource reference (required).
	Href string
	// Role, Arcrole and Title are the semantic attributes.
	Role    string
	Arcrole string
	Title   string
	// Show and Actuate are the behaviour attributes.
	Show    Show
	Actuate Actuate
}

// Locator is an extended-link child that addresses a remote resource.
type Locator struct {
	Element *xmldom.Element
	Label   string
	Href    string
	Role    string
	Title   string
}

// Resource is an extended-link child that supplies a local resource.
type Resource struct {
	Element *xmldom.Element
	Label   string
	Role    string
	Title   string
}

// arcElem is an arc rule before label expansion.
type arcElem struct {
	element *xmldom.Element
	from    string
	to      string
	arcrole string
	title   string
	show    Show
	actuate Actuate
}

// Extended is an extended link: an out-of-line link connecting any number
// of local and remote resources with explicit traversal arcs. The paper's
// links.xml (Figure 9) is a document of extended links.
type Extended struct {
	// Element is the extended-link element.
	Element *xmldom.Element
	// Role and Title are the link's semantic attributes.
	Role  string
	Title string
	// Locators and Resources are the participating endpoints.
	Locators  []*Locator
	Resources []*Resource
	// Titles holds xlink:type="title" child elements' text.
	Titles []string

	arcElems []arcElem
}

// LinkSet is the result of scanning one document for XLink markup.
type LinkSet struct {
	// Simples are the simple links found, in document order.
	Simples []*Simple
	// Extendeds are the extended links found, in document order.
	Extendeds []*Extended
	// Doc is the scanned document.
	Doc *xmldom.Document
}

func attr(e *xmldom.Element, local string) string {
	v, _ := e.Attr(Namespace, local)
	return v
}

// FindLinks scans a document for XLink markup and returns the discovered
// links. Elements with xlink:type="simple", or an xlink:href and no
// xlink:type (the spec's shorthand), become simple links; elements with
// xlink:type="extended" are parsed with their locator/resource/arc/title
// children. Malformed link markup is reported as an error.
func FindLinks(doc *xmldom.Document) (*LinkSet, error) {
	if doc == nil || doc.Root() == nil {
		return nil, fmt.Errorf("xlink: nil or empty document")
	}
	ls := &LinkSet{Doc: doc}
	var err error
	visit(doc.Root(), func(e *xmldom.Element) bool {
		if err != nil {
			return false
		}
		t := Type(attr(e, "type"))
		switch t {
		case TypeSimple:
			s, serr := parseSimple(e)
			if serr != nil {
				err = serr
				return false
			}
			ls.Simples = append(ls.Simples, s)
			return true
		case TypeExtended:
			x, xerr := parseExtended(e)
			if xerr != nil {
				err = xerr
				return false
			}
			ls.Extendeds = append(ls.Extendeds, x)
			return false // children already consumed
		case "":
			if attr(e, "href") != "" {
				s, serr := parseSimple(e)
				if serr != nil {
					err = serr
					return false
				}
				ls.Simples = append(ls.Simples, s)
			}
			return true
		case TypeLocator, TypeArc, TypeResource, TypeTitle:
			// Only meaningful inside an extended link; stray ones are
			// ignored per spec conformance rules ("no meaning").
			return true
		case TypeNone:
			return true
		default:
			err = fmt.Errorf("xlink: element <%s>: invalid xlink:type %q", e.Path(), t)
			return false
		}
	})
	if err != nil {
		return nil, err
	}
	return ls, nil
}

// visit walks elements pre-order; fn returning false prunes the subtree.
func visit(e *xmldom.Element, fn func(*xmldom.Element) bool) {
	if !fn(e) {
		return
	}
	for _, c := range e.ChildElements() {
		visit(c, fn)
	}
}

func parseSimple(e *xmldom.Element) (*Simple, error) {
	s := &Simple{
		Element: e,
		Href:    attr(e, "href"),
		Role:    attr(e, "role"),
		Arcrole: attr(e, "arcrole"),
		Title:   attr(e, "title"),
		Show:    Show(attr(e, "show")),
		Actuate: Actuate(attr(e, "actuate")),
	}
	if s.Href == "" {
		return nil, fmt.Errorf("xlink: simple link <%s> missing xlink:href", e.Path())
	}
	if !s.Show.Valid() {
		return nil, fmt.Errorf("xlink: simple link <%s>: invalid xlink:show %q", e.Path(), s.Show)
	}
	if !validActuate(s.Actuate) {
		return nil, fmt.Errorf("xlink: simple link <%s>: invalid xlink:actuate %q", e.Path(), s.Actuate)
	}
	return s, nil
}

func parseExtended(e *xmldom.Element) (*Extended, error) {
	x := &Extended{
		Element: e,
		Role:    attr(e, "role"),
		Title:   attr(e, "title"),
	}
	for _, c := range e.ChildElements() {
		switch Type(attr(c, "type")) {
		case TypeLocator:
			loc := &Locator{
				Element: c,
				Label:   attr(c, "label"),
				Href:    attr(c, "href"),
				Role:    attr(c, "role"),
				Title:   attr(c, "title"),
			}
			if loc.Href == "" {
				return nil, fmt.Errorf("xlink: locator <%s> missing xlink:href", c.Path())
			}
			x.Locators = append(x.Locators, loc)
		case TypeResource:
			x.Resources = append(x.Resources, &Resource{
				Element: c,
				Label:   attr(c, "label"),
				Role:    attr(c, "role"),
				Title:   attr(c, "title"),
			})
		case TypeArc:
			arc := arcElem{
				element: c,
				from:    attr(c, "from"),
				to:      attr(c, "to"),
				arcrole: attr(c, "arcrole"),
				title:   attr(c, "title"),
				show:    Show(attr(c, "show")),
				actuate: Actuate(attr(c, "actuate")),
			}
			if !arc.show.Valid() {
				return nil, fmt.Errorf("xlink: arc <%s>: invalid xlink:show %q", c.Path(), arc.show)
			}
			if !validActuate(arc.actuate) {
				return nil, fmt.Errorf("xlink: arc <%s>: invalid xlink:actuate %q", c.Path(), arc.actuate)
			}
			x.arcElems = append(x.arcElems, arc)
		case TypeTitle:
			x.Titles = append(x.Titles, c.StringValue())
		default:
			// Non-XLink children carry no linking meaning; skip.
		}
	}
	// Validate that arc labels reference participating resources.
	labels := x.labelSet()
	for _, a := range x.arcElems {
		if a.from != "" && len(labels[a.from]) == 0 {
			return nil, fmt.Errorf("xlink: arc in <%s>: from label %q matches no locator or resource", e.Path(), a.from)
		}
		if a.to != "" && len(labels[a.to]) == 0 {
			return nil, fmt.Errorf("xlink: arc in <%s>: to label %q matches no locator or resource", e.Path(), a.to)
		}
	}
	return x, nil
}

// labelSet maps each label to its endpoints; multiple endpoints may share
// a label, which multiplies arcs on expansion.
func (x *Extended) labelSet() map[string][]Endpoint {
	m := map[string][]Endpoint{}
	for _, l := range x.Locators {
		m[l.Label] = append(m[l.Label], Endpoint{Label: l.Label, Href: l.Href, Title: l.Title, Role: l.Role})
	}
	for _, r := range x.Resources {
		m[r.Label] = append(m[r.Label], Endpoint{Label: r.Label, Resource: r, Title: r.Title, Role: r.Role})
	}
	return m
}

// allEndpoints lists every participating endpoint (locators then local
// resources, in document order).
func (x *Extended) allEndpoints() []Endpoint {
	var out []Endpoint
	for _, l := range x.Locators {
		out = append(out, Endpoint{Label: l.Label, Href: l.Href, Title: l.Title, Role: l.Role})
	}
	for _, r := range x.Resources {
		out = append(out, Endpoint{Label: r.Label, Resource: r, Title: r.Title, Role: r.Role})
	}
	return out
}

// Arcs expands the link's arc elements into concrete traversal arcs. An
// absent from or to selects every participating endpoint (§5.1.3); a
// label shared by several endpoints produces one arc per pair.
func (x *Extended) Arcs() []Arc {
	labels := x.labelSet()
	var out []Arc
	for _, ae := range x.arcElems {
		var froms, tos []Endpoint
		if ae.from == "" {
			froms = x.allEndpoints()
		} else {
			froms = labels[ae.from]
		}
		if ae.to == "" {
			tos = x.allEndpoints()
		} else {
			tos = labels[ae.to]
		}
		for _, f := range froms {
			for _, t := range tos {
				out = append(out, Arc{
					Link:    x,
					From:    f,
					To:      t,
					Arcrole: ae.arcrole,
					Title:   ae.title,
					Show:    ae.show,
					Actuate: ae.actuate,
				})
			}
		}
	}
	return out
}
