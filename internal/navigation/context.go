package navigation

import (
	"fmt"
	"reflect"
	"slices"
	"sync"

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
	// insts are the member instances in store order, as the Where filter
	// keeps them: what the next resolution compares to take the context
	// over.
	insts []*conceptual.Instance

	// sym is the symbol of Name and syms[i] that of Members[i].ID(), in
	// the table of the lineage the context was resolved into: what a
	// session's visits hold.
	sym  uint32
	syms []uint32

	// out is the OutEdges index and index the position map, each built
	// once, on first use.
	outOnce   sync.Once
	out       *edgeIndex
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
	rc.outOnce.Do(func() { rc.out = rc.indexEdges(rc.Edges()) })
	return rc.out
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
	// lin is the lineage the model was resolved into.
	lin *Lineage
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

// Resolve materializes every context family of the model against a
// store, as the one model of a lineage of its own, which its sessions
// resolve against.
// Each resolved context carries a snapshot of its definition, not the
// live one: a later mutation of the model (SetAccessStructure swapping
// def.Access) must not reach into contexts that were resolved before it
// — sessions, renderers and the analytics deriver read their resolved
// model lock-free on the strength of that immutability. A core.App
// resolves through its own lineage inside a mutation and never calls
// Resolve; a caller resolving against an App's store does so only while
// no mutation runs.
func (m *Model) Resolve(store *conceptual.Store) (*ResolvedModel, error) {
	var rm *ResolvedModel
	rm, err := m.resolveInto(NewLineage(func() *ResolvedModel { return rm }), store, nil)
	return rm, err
}

// resolveInto resolves the model into lineage l, taking over from prev,
// an earlier resolution into l (or nil), every context the change
// between them cannot have reached. Context names are the table's
// strings: every model of a lineage shares them.
//
// A context is taken over — prev's object itself, with the OutEdges
// index and position map it has built — when its declaration is
// reflect.DeepEqual to the one prev's context was resolved under, over
// the same node class and group instance, and the Where filter leaves
// it the same instances in the same order. An instance is never changed
// once its store holds it (an edit replaces it), so the same instances
// have the same titles and order, and with the same declaration the
// same edges: no node is made, sorted or interned for it. A context
// whose declaration differs from its predecessor's only in Access or
// Show keeps the predecessor's sorted members and symbols and derives
// only its edges. Every other context is resolved afresh. A superseded
// model and its successor thus share every unchanged context, so each
// model costs only the contexts that changed.
func (m *Model) resolveInto(l *Lineage, store *conceptual.Store, prev *ResolvedModel) (*ResolvedModel, error) {
	if prev != nil && prev.lin != l {
		prev = nil
	}
	rm := &ResolvedModel{Model: m, lin: l}
	for _, live := range m.contexts {
		where, err := compileWhere(live.Where)
		if err != nil {
			return nil, fmt.Errorf("navigation: context %q: %w", live.Name, err)
		}
		f := &family{live: live, nc: m.nodeClasses[live.NodeClass]}
		if prev != nil && prev.Model.nodeClasses[live.NodeClass] == f.nc {
			f.prev = prev
		}
		if live.GroupBy == "" {
			rm.Contexts = append(rm.Contexts, f.context(nil, filterInstances(store.InstancesOf(f.nc.Class), where)))
			continue
		}
		rel := store.Schema().Relationship(live.GroupBy)
		if rel == nil {
			return nil, fmt.Errorf("navigation: context %q: unknown relationship %q", live.Name, live.GroupBy)
		}
		if rel.Target != f.nc.Class {
			return nil, fmt.Errorf("navigation: context %q: relationship %q targets %q, not member class %q",
				live.Name, live.GroupBy, rel.Target, f.nc.Class)
		}
		for _, group := range store.InstancesOf(rel.Source) {
			insts := filterInstances(store.Related(group.ID, rel.Name), where)
			if len(insts) == 0 {
				continue // empty contexts are not materialized
			}
			rm.Contexts = append(rm.Contexts, f.context(group, insts))
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
	return rm, nil
}

// family resolves the contexts of one declaration, live, taking over
// what it can from prev.
type family struct {
	live *ContextDef
	nc   *NodeClass
	// prev is the earlier resolution, nil when none of its contexts can
	// be taken over: there is none, or it viewed the members through
	// another node class.
	prev *ResolvedModel
	// def is the snapshot of live the family's new contexts carry, made
	// on first need.
	def *ContextDef
}

// context returns the family's context over the group instance (nil
// when ungrouped) whose members are insts, in store order as the Where
// filter keeps them. A context resolved afresh holds its nodes in one
// array and has no symbols yet.
func (f *family) context(group *conceptual.Instance, insts []*conceptual.Instance) *ResolvedContext {
	var p *ResolvedContext
	switch {
	case f.prev == nil:
	case group == nil:
		p = f.prev.byName[f.live.Name]
	default:
		p = f.prev.byName[f.live.Name+":"+group.ID]
	}
	if p != nil && p.Def.Name == f.live.Name && p.Group == group && slices.Equal(p.insts, insts) {
		// Access and Show decide the edges alone, not the members.
		a, b := *p.Def, *f.live
		a.Access, a.Show, b.Access, b.Show = nil, "", nil, ""
		if a == b {
			if p.Def.Show == f.live.Show && reflect.DeepEqual(p.Def.Access, f.live.Access) {
				return p
			}
			return &ResolvedContext{Def: f.snapshot(), Name: p.Name, Group: group, Members: p.Members,
				insts: p.insts, sym: p.sym, syms: p.syms}
		}
	}
	name := f.live.Name
	if group != nil {
		name += ":" + group.ID
	}
	nodes := make([]Node, len(insts))
	members := make([]*Node, len(insts))
	for i, inst := range insts {
		nodes[i] = Node{Class: f.nc, Instance: inst}
		members[i] = &nodes[i]
	}
	orderNodes(members, f.live.OrderBy)
	return &ResolvedContext{Def: f.snapshot(), Name: name, Group: group, Members: members, insts: insts}
}

// snapshot returns the declaration the family's new contexts carry.
func (f *family) snapshot() *ContextDef {
	if f.def == nil {
		f.def = new(ContextDef)
		*f.def = *f.live
	}
	return f.def
}

// symbolize interns the names and member ids of the contexts resolved
// afresh — those with no symbol yet, as no context is named "" — in the
// model's lineage's table, gives each the table's copy of its name, and
// indexes the model's contexts by name.
func (rm *ResolvedModel) symbolize() {
	rm.lin.intern(func(in *interner) {
		for _, rc := range rm.Contexts {
			if rc.sym != symNone {
				continue
			}
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
