// Package xlink implements the XML Linking Language (XLink) 1.0: simple
// links, extended links with locators, resources, arcs and titles, arc
// expansion, linkbase documents and traversal resolution.
//
// This is the substrate the paper's §6 proposal rests on: link structure is
// authored in separate XML documents (a linkbase such as the paper's
// links.xml, Figure 9) instead of being embedded in content pages, and an
// XLink processor — this package — recovers the traversal graph from it.
package xlink

import (
	"fmt"
	"strings"
)

// Namespace is the XLink namespace URI.
const Namespace = "http://www.w3.org/1999/xlink"

// LinkbaseArcrole marks arcs that lead to additional linkbase documents.
const LinkbaseArcrole = "http://www.w3.org/1999/xlink/properties/linkbase"

// Type is the value space of xlink:type.
type Type string

// xlink:type values.
const (
	TypeSimple   Type = "simple"
	TypeExtended Type = "extended"
	TypeLocator  Type = "locator"
	TypeArc      Type = "arc"
	TypeResource Type = "resource"
	TypeTitle    Type = "title"
	TypeNone     Type = "none"
)

// Show is the value space of xlink:show, the link behaviour attribute.
type Show string

// xlink:show values.
const (
	ShowUnspecified Show = ""
	ShowNew         Show = "new"
	ShowReplace     Show = "replace"
	ShowEmbed       Show = "embed"
	ShowOther       Show = "other"
	ShowNone        Show = "none"
)

// Actuate is the value space of xlink:actuate.
type Actuate string

// xlink:actuate values.
const (
	ActuateUnspecified Actuate = ""
	ActuateOnLoad      Actuate = "onLoad"
	ActuateOnRequest   Actuate = "onRequest"
	ActuateOther       Actuate = "other"
	ActuateNone        Actuate = "none"
)

// Valid reports whether s is in xlink:show's value space; the XLink
// processor rejects a link whose behaviour is not.
func (s Show) Valid() bool {
	switch s {
	case ShowUnspecified, ShowNew, ShowReplace, ShowEmbed, ShowOther, ShowNone:
		return true
	}
	return false
}

func validActuate(a Actuate) bool {
	switch a {
	case ActuateUnspecified, ActuateOnLoad, ActuateOnRequest, ActuateOther, ActuateNone:
		return true
	}
	return false
}

// Ref is an XLink href split into document URI and fragment pointer.
type Ref struct {
	// URI is the document part; empty means "this document".
	URI string
	// Fragment is the XPointer after '#'; empty means the whole document.
	Fragment string
}

// SplitRef splits an href value into document URI and fragment.
func SplitRef(href string) Ref {
	uri, frag, _ := strings.Cut(href, "#")
	return Ref{URI: uri, Fragment: frag}
}

// String reassembles the reference.
func (r Ref) String() string {
	if r.Fragment == "" {
		return r.URI
	}
	return r.URI + "#" + r.Fragment
}

// Endpoint is one end of a traversal arc: either a remote resource
// identified by href (from a locator) or a local resource element.
type Endpoint struct {
	// Label is the xlink:label the endpoint was selected by.
	Label string
	// Href is non-empty for remote endpoints (locators).
	Href string
	// Resource is non-nil for local endpoints.
	Resource *Resource
	// Title is the human-readable endpoint title, when given.
	Title string
	// Role is the endpoint's xlink:role, when given.
	Role string
}

// Remote reports whether the endpoint refers to a remote resource.
func (e Endpoint) Remote() bool { return e.Resource == nil }

// String renders the endpoint for diagnostics.
func (e Endpoint) String() string {
	if e.Remote() {
		return fmt.Sprintf("%s(%s)", e.Label, e.Href)
	}
	return fmt.Sprintf("%s(local)", e.Label)
}

// Arc is an expanded traversal arc between two endpoints of an extended
// link. Arc elements with absent from/to expand to the cross product of
// all participating labels, per XLink 1.0 §5.1.3.
type Arc struct {
	// Link is the extended link that defined the arc.
	Link *Extended
	// From and To are the traversal endpoints.
	From Endpoint
	To   Endpoint
	// Arcrole, Title, Show, Actuate are the arc element's properties.
	Arcrole string
	Title   string
	Show    Show
	Actuate Actuate
}

// IsLinkbaseArc reports whether the arc loads an external linkbase.
func (a Arc) IsLinkbaseArc() bool { return a.Arcrole == LinkbaseArcrole }

// String renders the arc for diagnostics.
func (a Arc) String() string {
	return fmt.Sprintf("%s -> %s [%s]", a.From, a.To, a.Arcrole)
}
