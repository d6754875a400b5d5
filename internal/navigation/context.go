package navigation

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/conceptual"
)

// ContextDef declares a navigational context (or a family of them):
// which nodes belong to it, how they are grouped and ordered, and which
// access structure traverses them. This is OOHDM's navigational-context
// primitive as the paper describes it — "a set of nodes, links, context
// classes and other navigational contexts ... traversed following a
// particular order".
type ContextDef struct {
	// Name identifies the context family, e.g. "ByAuthor".
	Name string
	// NodeClass names the member node class.
	NodeClass string
	// GroupBy, when set, names a relationship (or declared inverse) on
	// whose sources the family is partitioned: "paints" yields one
	// context per painter holding that painter's paintings. Empty
	// yields a single context over all instances of the class.
	GroupBy string
	// OrderBy names the member attribute that orders the context;
	// empty keeps store order.
	OrderBy string
	// Access is the traversal structure. Swapping it re-weaves every
	// page of the context — the paper's motivating change.
	Access AccessStructure
	// Show is the XLink behaviour for the context's links: "replace"
	// (default), "new" (open in a new presentation context) or "embed"
	// (inline the target where the link stands). The woven pages and
	// the generated linkbase both honour it.
	Show string
	// Where, when set, restricts membership to nodes satisfying one
	// comparison over an attribute (OOHDM's context classes), e.g.
	// "year >= 1910" or "technique = 'Oil on canvas'".
	Where string
}

// ShowOrDefault returns the declared behaviour, defaulting to "replace".
func (c *ContextDef) ShowOrDefault() string {
	if c.Show == "" {
		return "replace"
	}
	return c.Show
}

// ResolvedContext is one concrete navigational context: an ordered member
// list with its access structure, ready to answer traversal queries.
// Once resolved it is immutable, and all query methods are safe for
// concurrent use — request-time weaving hits the same context from many
// goroutines at once.
type ResolvedContext struct {
	// Def is the generating definition.
	Def *ContextDef
	// Name is the instance name: "ByAuthor:picasso" for grouped
	// families, or just the family name when ungrouped.
	Name string
	// Group is the grouping instance (the painter), nil when ungrouped.
	Group *conceptual.Instance
	// Members are the context's nodes in traversal order.
	Members []*Node

	// sym is the symbol of Name and syms[i] that of Members[i].ID(), in
	// the table of the lineage the context was resolved into: what a
	// session's visits hold.
	sym  uint32
	syms []uint32

	// out is the OutEdges index, built on first use under outMu; it is
	// read lock-free once built.
	outMu     sync.Mutex
	out       atomic.Pointer[edgeIndex]
	indexOnce sync.Once
	index     map[string]int
}

// edgeIndex holds a context's edges grouped by source node: one group
// per member position, in order, then the hub's. Group g is
// out[start[g]:start[g+1]].
type edgeIndex struct {
	out   []Edge
	start []int32
}

// EntryNode returns the node a link into the context lands on: the hub
// when the access structure has one, otherwise the first member. Every
// renderer of a context-entry link (landmark bars, the site map, the
// cache's landmark comparison) must agree on this rule.
func (rc *ResolvedContext) EntryNode() string {
	if !rc.Def.Access.HasHub() && len(rc.Members) > 0 {
		return rc.Members[0].ID()
	}
	return HubID
}

// Edges computes the context's navigation edges, stamped with the
// context's declared XLink show behaviour. A context-aware access
// structure (an adaptive tour with per-context plans) is asked for this
// instance's edges by name; every other structure sees only the ordered
// members. Each call computes them afresh and the caller owns the
// slice: the context keeps only the OutEdges index, so a superseded
// model that idle sessions still reference holds one copy of its edges
// at most, and none for contexts nobody traversed.
func (rc *ResolvedContext) Edges() []Edge {
	var edges []Edge
	if ca, ok := rc.Def.Access.(ContextAwareAccess); ok {
		edges = ca.EdgesFor(rc.Name, rc.Members)
	} else {
		edges = rc.Def.Access.Edges(rc.Members)
	}
	show := rc.Def.ShowOrDefault()
	for i := range edges {
		edges[i].Show = show
	}
	return edges
}

// indexEdges builds an OutEdges index over edges: a counting sort by
// source position, stable, so each node keeps its edges in Edges order.
// Edges from a node outside the context are left out.
func (rc *ResolvedContext) indexEdges(edges []Edge) *edgeIndex {
	hub := len(rc.Members)
	start := make([]int32, hub+2)
	for _, e := range edges {
		if g := rc.group(e.From); g >= 0 {
			start[g+1]++
		}
	}
	for g := 1; g < len(start); g++ {
		start[g] += start[g-1]
	}
	out := make([]Edge, start[hub+1])
	next := append([]int32(nil), start...)
	for _, e := range edges {
		if g := rc.group(e.From); g >= 0 {
			out[next[g]] = e
			next[g]++
		}
	}
	return &edgeIndex{out: out, start: start}
}

// group returns the OutEdges group of an edge source: its member
// position, len(Members) for the hub, or -1 outside the context.
func (rc *ResolvedContext) group(from string) int {
	if from == HubID {
		return len(rc.Members)
	}
	return rc.Position(from)
}

// outIndex returns the OutEdges index, building it on first use.
func (rc *ResolvedContext) outIndex() *edgeIndex {
	if ix := rc.out.Load(); ix != nil {
		return ix
	}
	rc.outMu.Lock()
	defer rc.outMu.Unlock()
	if ix := rc.out.Load(); ix != nil {
		return ix
	}
	ix := rc.indexEdges(rc.Edges())
	rc.out.Store(ix)
	return ix
}

// indexHolds reports whether the OutEdges index, if built, groups
// exactly edges. The index keeps the edge labels — member titles — of
// the moment it was built, which can fall between a content edit and
// the rebuild that re-derives the context. A build in progress is
// waited for.
func (rc *ResolvedContext) indexHolds(edges []Edge) bool {
	rc.outMu.Lock()
	defer rc.outMu.Unlock()
	ix := rc.out.Load()
	if ix == nil {
		return true
	}
	// Each edge must be the next one of its source's group; then every
	// group must be used up.
	next := append([]int32(nil), ix.start...)
	n := 0
	for _, e := range edges {
		g := rc.group(e.From)
		if g < 0 {
			continue
		}
		if next[g] == ix.start[g+1] || ix.out[next[g]] != e {
			return false
		}
		next[g]++
		n++
	}
	return n == len(ix.out)
}

// Position returns the 0-based position of the node in the context, or -1.
func (rc *ResolvedContext) Position(nodeID string) int {
	rc.indexOnce.Do(func() {
		rc.index = make(map[string]int, len(rc.Members))
		for i, m := range rc.Members {
			rc.index[m.ID()] = i
		}
	})
	if i, ok := rc.index[nodeID]; ok {
		return i
	}
	return -1
}

// Member returns the member node with the given ID, or nil.
func (rc *ResolvedContext) Member(nodeID string) *Node {
	if i := rc.Position(nodeID); i >= 0 {
		return rc.Members[i]
	}
	return nil
}

// OutEdges returns the edges leaving the given member (or HubID) in
// this context, in Edges order, from an index built on first use. The
// slice is shared by every caller and must not be modified.
func (rc *ResolvedContext) OutEdges(fromID string) []Edge {
	g := rc.group(fromID)
	if g < 0 {
		return nil
	}
	return rc.outEdgesOf(g)
}

// outEdgesOf returns the edges of OutEdges group g.
func (rc *ResolvedContext) outEdgesOf(g int) []Edge {
	ix := rc.outIndex()
	end := ix.start[g+1]
	return ix.out[ix.start[g]:end:end]
}

// symOf returns the symbol of a member id or of HubID, and false for a
// node outside the context.
func (rc *ResolvedContext) symOf(nodeID string) (uint32, bool) {
	if nodeID == HubID {
		return symHub, true
	}
	if i := rc.Position(nodeID); i >= 0 {
		return rc.syms[i], true
	}
	return 0, false
}

// Next returns the member after nodeID in context order, or nil at the
// end (callers wanting ring semantics use a circular access structure,
// whose edges wrap; Next follows the edges, not raw order).
func (rc *ResolvedContext) Next(nodeID string) *Node {
	for _, e := range rc.OutEdges(nodeID) {
		if e.Kind == EdgeNext {
			return rc.Member(e.To)
		}
	}
	return nil
}

// Prev returns the member before nodeID per the context's edges, or nil.
func (rc *ResolvedContext) Prev(nodeID string) *Node {
	for _, e := range rc.OutEdges(nodeID) {
		if e.Kind == EdgePrev {
			return rc.Member(e.To)
		}
	}
	return nil
}

// String renders the context for diagnostics.
func (rc *ResolvedContext) String() string {
	return fmt.Sprintf("%s(%d members, %s)", rc.Name, len(rc.Members), rc.Def.Access.Kind())
}

// ResolvedModel holds every resolved context of a model over one store.
type ResolvedModel struct {
	// Model is the generating navigational model.
	Model *Model
	// Contexts are the resolved contexts in definition order (and group
	// insertion order within a family).
	Contexts []*ResolvedContext
	// Landmarks are the resolved landmark contexts, reachable from
	// every page.
	Landmarks []*ResolvedContext

	byName map[string]*ResolvedContext
	// lin is the lineage the model was resolved into, and seq its place
	// in the lineage's order of resolution.
	lin *Lineage
	seq uint64
}

// Context returns the named resolved context, or nil.
func (rm *ResolvedModel) Context(name string) *ResolvedContext { return rm.byName[name] }

// ContextsOf returns the resolved contexts of one family.
func (rm *ResolvedModel) ContextsOf(family string) []*ResolvedContext {
	var out []*ResolvedContext
	for _, rc := range rm.Contexts {
		if rc.Def.Name == family {
			out = append(out, rc)
		}
	}
	return out
}

// ContextsContaining returns every resolved context that includes the node.
func (rm *ResolvedModel) ContextsContaining(nodeID string) []*ResolvedContext {
	var out []*ResolvedContext
	for _, rc := range rm.Contexts {
		if rc.Position(nodeID) >= 0 {
			out = append(out, rc)
		}
	}
	return out
}

// Adopt puts prev, a context of an earlier resolution of the same model
// over the same store, in place of the context at position i, together
// with the OutEdges index and position map prev has built, and reports
// whether it did. edges are the context's edges as just derived
// (LinkbaseContext.Edges). prev is adopted only when it is
// interchangeable with the context it replaces: the same name,
// declaration, members in the same order and symbols, and an OutEdges
// index that is unbuilt or groups exactly edges. The caller vouches
// that the members' titles are unchanged since prev's resolution. A
// superseded model and its successor then share every unchanged
// context, so each model costs only the contexts that changed.
func (rm *ResolvedModel) Adopt(i int, prev *ResolvedContext, edges []Edge) bool {
	cur := rm.Contexts[i]
	// The declarations compare in full, access structure parameters
	// included: an adaptive tour whose plan changed for a sibling
	// context is another declaration, even where this context's edges
	// are the same.
	if prev.Name != cur.Name || prev.Group != cur.Group ||
		prev.sym != cur.sym || !slices.Equal(prev.syms, cur.syms) ||
		!reflect.DeepEqual(prev.Def, cur.Def) || !sameMembers(prev.Members, cur.Members) ||
		!prev.indexHolds(edges) {
		return false
	}
	rm.Contexts[i] = prev
	rm.byName[prev.Name] = prev
	for j, lm := range rm.Landmarks {
		if lm == cur {
			rm.Landmarks[j] = prev
		}
	}
	return true
}

// sameMembers reports whether two member lists view the same instances
// through the same node classes, in the same order.
func sameMembers(a, b []*Node) bool {
	return slices.EqualFunc(a, b, func(x, y *Node) bool {
		return x.Instance == y.Instance && x.Class == y.Class
	})
}

// Resolve materializes every context family of the model against a
// store, as the first model of a lineage of its own, which it publishes.
// Each resolved context carries a snapshot of its definition, not the
// live one: a later mutation of the model (SetAccessStructure swapping
// def.Access) must not reach into contexts that were resolved before it
// — sessions, renderers and the analytics deriver read their resolved
// model lock-free on the strength of that immutability.
func (m *Model) Resolve(store *conceptual.Store) (*ResolvedModel, error) {
	rm, err := m.resolveInto(NewLineage(), store)
	if err != nil {
		return nil, err
	}
	rm.Publish()
	return rm, nil
}

// resolveInto resolves the model into lineage l. Context names are the
// table's strings: every model of a lineage shares them.
func (m *Model) resolveInto(l *Lineage, store *conceptual.Store) (*ResolvedModel, error) {
	rm := &ResolvedModel{Model: m, lin: l}
	for _, live := range m.contexts {
		def := new(ContextDef)
		*def = *live
		nc := m.nodeClasses[def.NodeClass]
		where, err := compileWhere(def.Where)
		if err != nil {
			return nil, fmt.Errorf("navigation: context %q: %w", def.Name, err)
		}
		if def.GroupBy == "" {
			members := make([]*Node, 0)
			for _, inst := range store.InstancesOf(nc.Class) {
				members = append(members, nodeOf(nc, inst))
			}
			members = filterNodes(members, where)
			orderNodes(members, def.OrderBy)
			rm.Contexts = append(rm.Contexts, &ResolvedContext{Def: def, Name: def.Name, Members: members})
			continue
		}
		rel := store.Schema().Relationship(def.GroupBy)
		if rel == nil {
			return nil, fmt.Errorf("navigation: context %q: unknown relationship %q", def.Name, def.GroupBy)
		}
		if rel.Target != nc.Class {
			return nil, fmt.Errorf("navigation: context %q: relationship %q targets %q, not member class %q",
				def.Name, def.GroupBy, rel.Target, nc.Class)
		}
		for _, group := range store.InstancesOf(rel.Source) {
			related := store.Related(group.ID, rel.Name)
			members := make([]*Node, 0, len(related))
			for _, inst := range related {
				members = append(members, nodeOf(nc, inst))
			}
			members = filterNodes(members, where)
			if len(members) == 0 {
				continue // empty contexts are not materialized
			}
			orderNodes(members, def.OrderBy)
			rc := &ResolvedContext{
				Def:     def,
				Name:    def.Name + ":" + group.ID,
				Group:   group,
				Members: members,
			}
			rm.Contexts = append(rm.Contexts, rc)
		}
	}
	rm.symbolize()
	for _, name := range m.landmarks {
		rc := rm.byName[name]
		if rc == nil {
			return nil, fmt.Errorf("navigation: landmark %q did not resolve", name)
		}
		rm.Landmarks = append(rm.Landmarks, rc)
	}
	rm.seq = l.seq.Add(1)
	return rm, nil
}

// symbolize interns the model's context names and member ids in its
// lineage's table, gives each context the table's copy of its name, and
// indexes the contexts by name.
func (rm *ResolvedModel) symbolize() {
	rm.lin.intern(func(in *interner) {
		for _, rc := range rm.Contexts {
			rc.sym = in.sym(rc.Name, false)
			rc.Name = in.names[rc.sym]
			rc.syms = make([]uint32, len(rc.Members))
			for i, n := range rc.Members {
				rc.syms[i] = in.sym(n.ID(), false)
			}
		}
	})
	rm.byName = make(map[string]*ResolvedContext, len(rm.Contexts))
	for _, rc := range rm.Contexts {
		rm.byName[rc.Name] = rc
	}
}
