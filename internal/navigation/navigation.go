// Package navigation implements the navigational model of the paper's §4:
// the primitives the web-design methodologies (HDM, RMM, OOHDM) use to
// describe navigation separately from the conceptual model.
//
//   - NodeClass: a node type, defined as a view over a conceptual class.
//   - NavLink: a link type, defined as a view over a relationship.
//   - AccessStructure: alternative ways to traverse a set of nodes —
//     Index, Guided Tour, Indexed Guided Tour (paper Figure 2) and Menu.
//   - ContextDef / ResolvedContext: OOHDM's navigational context, the
//     primitive that organizes the navigation space into consistent sets
//     traversable in a particular order.
//   - Session: the paper's §2 semantics — what "Next" means depends on
//     the context through which the current node was reached.
//   - Lineage: the successive resolutions of one model as it changes.
//     Its table numbers their context names and node ids, so a session
//     holds each visit as two symbols and no model: it resolves against
//     the newest model the lineage has published.
//
// Nothing in this package renders HTML or stores data; it is purely the
// navigational aspect, which packages core and aspect weave into pages.
package navigation

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"

	"repro/internal/conceptual"
)

// NodeClass is a navigational node type: a named view (projection) over a
// conceptual class.
type NodeClass struct {
	// Name is the node class name, e.g. "PaintingNode".
	Name string
	// Class is the underlying conceptual class name.
	Class string
	// AttrNames selects which attributes the node exposes; empty means
	// all attributes.
	AttrNames []string
	// TitleAttr names the attribute used as the node's display title;
	// the instance ID is used when empty.
	TitleAttr string
}

// Node is an instance-level navigational node: one conceptual instance
// seen through a node class.
type Node struct {
	// Class is the node's node class.
	Class *NodeClass
	// Instance is the underlying conceptual instance.
	Instance *conceptual.Instance
}

// ID returns the node's identity (the instance ID).
func (n *Node) ID() string { return n.Instance.ID }

// Title returns the display title per the node class's TitleAttr.
func (n *Node) Title() string {
	if n.Class.TitleAttr != "" {
		if v := n.Instance.Attr(n.Class.TitleAttr); v != "" {
			return v
		}
	}
	return n.Instance.ID
}

// Attr returns an exposed attribute value; attributes outside the node
// class's projection read as empty.
func (n *Node) Attr(name string) string {
	if len(n.Class.AttrNames) > 0 {
		found := false
		for _, a := range n.Class.AttrNames {
			if a == name {
				found = true
				break
			}
		}
		if !found {
			return ""
		}
	}
	return n.Instance.Attr(name)
}

// AttrNames returns the node's exposed attribute names, sorted.
func (n *Node) AttrNames() []string {
	if len(n.Class.AttrNames) > 0 {
		out := append([]string(nil), n.Class.AttrNames...)
		sort.Strings(out)
		return out
	}
	return n.Instance.AttrNames()
}

// String renders the node for diagnostics.
func (n *Node) String() string {
	return fmt.Sprintf("%s[%s]", n.Class.Name, n.ID())
}

// NavLink is a navigational link type: a named view over a conceptual
// relationship, connecting two node classes.
type NavLink struct {
	// Name is the link name shown to users, e.g. "works".
	Name string
	// Rel is the underlying relationship (or declared inverse) name.
	Rel string
	// From and To are node class names.
	From string
	To   string
}

// Model is a complete navigational schema: node classes, link views and
// context definitions over one conceptual schema. Like OOHDM, several
// Models may view the same conceptual schema differently.
type Model struct {
	nodeClasses map[string]*NodeClass
	classOrder  []string
	links       []*NavLink
	contexts    []*ContextDef
	landmarks   []string
}

// NewModel returns an empty navigational model.
func NewModel() *Model {
	return &Model{nodeClasses: map[string]*NodeClass{}}
}

// AddNodeClass registers a node class.
func (m *Model) AddNodeClass(nc *NodeClass) error {
	if nc == nil || nc.Name == "" {
		return fmt.Errorf("navigation: node class must have a name")
	}
	if _, dup := m.nodeClasses[nc.Name]; dup {
		return fmt.Errorf("navigation: node class %q already defined", nc.Name)
	}
	m.nodeClasses[nc.Name] = nc
	m.classOrder = append(m.classOrder, nc.Name)
	return nil
}

// MustAddNodeClass is AddNodeClass that panics.
func (m *Model) MustAddNodeClass(nc *NodeClass) {
	if err := m.AddNodeClass(nc); err != nil {
		panic(err)
	}
}

// NodeClass returns the named node class, or nil.
func (m *Model) NodeClass(name string) *NodeClass { return m.nodeClasses[name] }

// NodeClasses returns the node classes in declaration order.
func (m *Model) NodeClasses() []*NodeClass {
	out := make([]*NodeClass, 0, len(m.classOrder))
	for _, n := range m.classOrder {
		out = append(out, m.nodeClasses[n])
	}
	return out
}

// AddLink registers a navigational link view.
func (m *Model) AddLink(l *NavLink) error {
	if l == nil || l.Name == "" {
		return fmt.Errorf("navigation: link must have a name")
	}
	if m.nodeClasses[l.From] == nil {
		return fmt.Errorf("navigation: link %q: unknown node class %q", l.Name, l.From)
	}
	if m.nodeClasses[l.To] == nil {
		return fmt.Errorf("navigation: link %q: unknown node class %q", l.Name, l.To)
	}
	m.links = append(m.links, l)
	return nil
}

// MustAddLink is AddLink that panics.
func (m *Model) MustAddLink(l *NavLink) {
	if err := m.AddLink(l); err != nil {
		panic(err)
	}
}

// Links returns the link views in declaration order.
func (m *Model) Links() []*NavLink { return m.links }

// AddContext registers a navigational context definition.
func (m *Model) AddContext(c *ContextDef) error {
	if c == nil || c.Name == "" {
		return fmt.Errorf("navigation: context must have a name")
	}
	if m.nodeClasses[c.NodeClass] == nil {
		return fmt.Errorf("navigation: context %q: unknown node class %q", c.Name, c.NodeClass)
	}
	if c.Access == nil {
		return fmt.Errorf("navigation: context %q: access structure required", c.Name)
	}
	for _, existing := range m.contexts {
		if existing.Name == c.Name {
			return fmt.Errorf("navigation: context %q already defined", c.Name)
		}
	}
	m.contexts = append(m.contexts, c)
	return nil
}

// MustAddContext is AddContext that panics.
func (m *Model) MustAddContext(c *ContextDef) {
	if err := m.AddContext(c); err != nil {
		panic(err)
	}
}

// Contexts returns the context definitions in declaration order.
func (m *Model) Contexts() []*ContextDef { return m.contexts }

// WithAccess returns a copy of the model in which each context family
// named in swaps is traversed by its new access structure; a name the
// model does not declare is ignored. The model itself is left as it
// was, so one an application serves can be swapped without a lock: the
// copy shares the node classes, the links and every other context
// definition with it.
func (m *Model) WithAccess(swaps map[string]AccessStructure) *Model {
	next := &Model{nodeClasses: maps.Clone(m.nodeClasses), classOrder: slices.Clip(m.classOrder),
		links: slices.Clip(m.links), contexts: slices.Clone(m.contexts), landmarks: slices.Clip(m.landmarks)}
	for i, c := range next.contexts {
		if as, ok := swaps[c.Name]; ok {
			def := *c
			def.Access = as
			next.contexts[i] = &def
		}
	}
	return next
}

// AddLandmark marks an ungrouped context as a landmark: an entry point
// reachable from every page of the application (OOHDM's landmark
// primitive — the global navigation bar). The named context must already
// be declared and must not be grouped (a grouped family has no single
// entry page).
func (m *Model) AddLandmark(contextName string) error {
	var def *ContextDef
	for _, c := range m.contexts {
		if c.Name == contextName {
			def = c
			break
		}
	}
	if def == nil {
		return fmt.Errorf("navigation: landmark %q: no such context", contextName)
	}
	if def.GroupBy != "" {
		return fmt.Errorf("navigation: landmark %q: grouped context families cannot be landmarks", contextName)
	}
	for _, l := range m.landmarks {
		if l == contextName {
			return fmt.Errorf("navigation: landmark %q already declared", contextName)
		}
	}
	m.landmarks = append(m.landmarks, contextName)
	return nil
}

// MustAddLandmark is AddLandmark that panics.
func (m *Model) MustAddLandmark(contextName string) {
	if err := m.AddLandmark(contextName); err != nil {
		panic(err)
	}
}

// Landmarks returns the landmark context names in declaration order.
func (m *Model) Landmarks() []string { return append([]string(nil), m.landmarks...) }

// nodeOf wraps an instance in its node class view.
func nodeOf(nc *NodeClass, inst *conceptual.Instance) *Node {
	return &Node{Class: nc, Instance: inst}
}

// orderNodes sorts nodes by the given attribute (numeric when both values
// parse as integers, else lexicographic), stably; an empty attr keeps the
// incoming order. Each node's key is read and parsed once, then nodes and
// keys sort together; sort.Stable makes the same comparisons
// sort.SliceStable would, so the order is the same.
func orderNodes(nodes []*Node, attr string) {
	if attr == "" {
		return
	}
	keys := make([]orderKey, len(nodes))
	for i, n := range nodes {
		v := n.Instance.Attr(attr)
		num, err := strconv.Atoi(v)
		keys[i] = orderKey{str: v, num: num, numeric: err == nil}
	}
	sort.Stable(byOrderKey{nodes, keys})
}

// orderKey is one node's ordering attribute, parsed.
type orderKey struct {
	str     string
	num     int
	numeric bool
}

// byOrderKey sorts nodes by their parallel keys.
type byOrderKey struct {
	nodes []*Node
	keys  []orderKey
}

func (s byOrderKey) Len() int { return len(s.nodes) }

func (s byOrderKey) Less(i, j int) bool {
	a, b := s.keys[i], s.keys[j]
	if a.numeric && b.numeric {
		return a.num < b.num
	}
	return a.str < b.str
}

func (s byOrderKey) Swap(i, j int) {
	s.nodes[i], s.nodes[j] = s.nodes[j], s.nodes[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}
