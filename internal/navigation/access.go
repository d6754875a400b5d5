package navigation

import "fmt"

// EdgeKind classifies a navigation edge by its traversal meaning.
type EdgeKind string

// Edge kinds. Member/Up come from index-style structures, Next/Prev from
// tours, Page from pagination (which §2 of the paper classifies as
// scrolling, not navigation).
const (
	EdgeMember EdgeKind = "member" // hub (index page) -> member node
	EdgeUp     EdgeKind = "up"     // member node -> hub
	EdgeNext   EdgeKind = "next"   // member -> following member
	EdgePrev   EdgeKind = "prev"   // member -> preceding member
	EdgePage   EdgeKind = "page"   // result page -> result page (scrolling)
)

// HubID is the pseudo-node identity of an access structure's entry page
// (the index page of Figure 3) within a resolved context.
const HubID = "_index"

// Edge is one directed navigation edge between nodes of a context. From
// or To may be HubID for the structure's entry page.
type Edge struct {
	From  string
	To    string
	Kind  EdgeKind
	Label string
	// Show is the XLink behaviour requested for traversing the edge
	// ("replace", "new" or "embed"); ResolvedContext.Edges stamps the
	// context's declared behaviour, defaulting to "replace".
	Show string
}

// String renders the edge for diagnostics and experiment output.
func (e Edge) String() string {
	return fmt.Sprintf("%s -> %s [%s %q]", e.From, e.To, e.Kind, e.Label)
}

// AccessStructure computes the link topology over an ordered member list.
// It is the navigational primitive whose replacement (Index -> Indexed
// Guided Tour) drives the paper's motivating change scenario.
type AccessStructure interface {
	// Kind returns the structure's identifier, e.g. "index".
	Kind() string
	// HasHub reports whether the structure has an entry (index) page.
	HasHub() bool
	// Edges returns the structure's edges over the given ordered member
	// node IDs, with labels holding member titles for hub edges.
	Edges(members []*Node) []Edge
}

// Index is the access structure of Figure 2(a): an entry page linking to
// every member, and each member linking back up to the entry page.
type Index struct{}

// Kind implements AccessStructure.
func (Index) Kind() string { return "index" }

// HasHub implements AccessStructure.
func (Index) HasHub() bool { return true }

// Edges implements AccessStructure.
func (Index) Edges(members []*Node) []Edge {
	return appendIndexEdges(make([]Edge, 0, 2*len(members)), members)
}

// appendIndexEdges appends an Index's edges: hub to every member, every
// member back up. The structures' edges are sized up front because a
// context's edges are computed once per model and again on its first
// traversal, and growing a slice of pointer-laden edges is most of
// that cost.
func appendIndexEdges(out []Edge, members []*Node) []Edge {
	for _, m := range members {
		out = append(out, Edge{From: HubID, To: m.ID(), Kind: EdgeMember, Label: m.Title()})
	}
	for _, m := range members {
		out = append(out, Edge{From: m.ID(), To: HubID, Kind: EdgeUp, Label: "Index"})
	}
	return out
}

// GuidedTour is a pure sequential tour: Next/Prev between consecutive
// members, no entry page (entry is the first member).
type GuidedTour struct {
	// Circular closes the tour: the last member's Next is the first.
	Circular bool
}

// Kind implements AccessStructure.
func (g GuidedTour) Kind() string { return "guided-tour" }

// HasHub implements AccessStructure.
func (GuidedTour) HasHub() bool { return false }

// Edges implements AccessStructure.
func (g GuidedTour) Edges(members []*Node) []Edge {
	return g.appendEdges(make([]Edge, 0, 2*len(members)), members)
}

// appendEdges appends the tour's Next/Prev edges.
func (g GuidedTour) appendEdges(out []Edge, members []*Node) []Edge {
	for i := 0; i < len(members)-1; i++ {
		out = append(out, Edge{From: members[i].ID(), To: members[i+1].ID(), Kind: EdgeNext, Label: "Next"})
		out = append(out, Edge{From: members[i+1].ID(), To: members[i].ID(), Kind: EdgePrev, Label: "Previous"})
	}
	if g.Circular && len(members) > 1 {
		last, first := members[len(members)-1], members[0]
		out = append(out, Edge{From: last.ID(), To: first.ID(), Kind: EdgeNext, Label: "Next"})
		out = append(out, Edge{From: first.ID(), To: last.ID(), Kind: EdgePrev, Label: "Previous"})
	}
	return out
}

// IndexedGuidedTour is the access structure of Figure 2(b), the one the
// paper's customer asked for: an Index plus a Guided Tour — the entry page
// links every member, members link back up, and consecutive members are
// joined by Next/Prev. In the tangled implementation (Figure 4) adopting
// it meant editing every page of the context; as an aspect it is one
// declaration.
type IndexedGuidedTour struct {
	// Circular closes the tour ring.
	Circular bool
}

// Kind implements AccessStructure.
func (IndexedGuidedTour) Kind() string { return "indexed-guided-tour" }

// HasHub implements AccessStructure.
func (IndexedGuidedTour) HasHub() bool { return true }

// Edges implements AccessStructure.
func (t IndexedGuidedTour) Edges(members []*Node) []Edge {
	out := appendIndexEdges(make([]Edge, 0, 4*len(members)), members)
	return GuidedTour{Circular: t.Circular}.appendEdges(out, members)
}

// Menu is a flat entry page linking to members without back-links; the
// global navigation bar of most sites. Unlike Index it adds no Up edges,
// so member pages are not coupled to it.
type Menu struct{}

// Kind implements AccessStructure.
func (Menu) Kind() string { return "menu" }

// HasHub implements AccessStructure.
func (Menu) HasHub() bool { return true }

// Edges implements AccessStructure.
func (Menu) Edges(members []*Node) []Edge {
	out := make([]Edge, 0, len(members))
	for _, m := range members {
		out = append(out, Edge{From: HubID, To: m.ID(), Kind: EdgeMember, Label: m.Title()})
	}
	return out
}

// AccessByKind constructs an access structure from its kind identifier,
// the inverse of Kind(). It supports the four built-ins; circular tour
// variants use the "circular-" prefix.
func AccessByKind(kind string) (AccessStructure, error) {
	switch kind {
	case "index":
		return Index{}, nil
	case "guided-tour":
		return GuidedTour{}, nil
	case "circular-guided-tour":
		return GuidedTour{Circular: true}, nil
	case "indexed-guided-tour":
		return IndexedGuidedTour{}, nil
	case "circular-indexed-guided-tour":
		return IndexedGuidedTour{Circular: true}, nil
	case "menu":
		return Menu{}, nil
	default:
		return nil, fmt.Errorf("navigation: unknown access structure kind %q", kind)
	}
}

// Interface compliance checks.
var (
	_ AccessStructure = Index{}
	_ AccessStructure = GuidedTour{}
	_ AccessStructure = IndexedGuidedTour{}
	_ AccessStructure = Menu{}
)
