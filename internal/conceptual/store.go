package conceptual

import (
	"fmt"
	"maps"
	"strconv"
)

// Store holds the instances and relationship links of one application,
// validated against a Schema. Iteration orders are deterministic
// (insertion order), which keeps woven sites and experiment output stable.
type Store struct {
	schema *Schema

	instances map[string]*Instance
	order     []string

	// links[rel] is the ordered list of (from, to) instance-ID pairs, and
	// index[rel] indexes it.
	links map[string][]linkPair
	index map[string]*linkIndex
}

type linkPair struct{ from, to string }

// linkIndex indexes one relationship's links: the targets of each
// source and the sources of each target, both in link order.
type linkIndex struct {
	targets map[string][]string
	sources map[string][]string
}

// linked reports whether fromID is already linked to toID, scanning the
// shorter of fromID's targets and toID's sources.
func (ix *linkIndex) linked(fromID, toID string) bool {
	ids, want := ix.targets[fromID], toID
	if sources := ix.sources[toID]; len(sources) < len(ids) {
		ids, want = sources, fromID
	}
	for _, id := range ids {
		if id == want {
			return true
		}
	}
	return false
}

// NewStore returns an empty store over the given schema.
func NewStore(schema *Schema) *Store {
	return &Store{
		schema:    schema,
		instances: map[string]*Instance{},
		links:     map[string][]linkPair{},
		index:     map[string]*linkIndex{},
	}
}

// Schema returns the store's schema.
func (s *Store) Schema() *Schema { return s.schema }

// Add creates an instance of the named class, validating the attributes
// against the class declaration.
func (s *Store) Add(class, id string, attrs map[string]string) (*Instance, error) {
	c := s.schema.Class(class)
	if c == nil {
		return nil, fmt.Errorf("conceptual: unknown class %q", class)
	}
	if id == "" {
		return nil, fmt.Errorf("conceptual: instance of %q must have an id", class)
	}
	if _, dup := s.instances[id]; dup {
		return nil, fmt.Errorf("conceptual: duplicate instance id %q", id)
	}
	inst := &Instance{ID: id, Class: class, attrs: map[string]string{}}
	for k, v := range attrs {
		def, ok := c.Attr(k)
		if !ok {
			return nil, fmt.Errorf("conceptual: class %q has no attribute %q", class, k)
		}
		if def.Type == IntAttr {
			if _, err := strconv.Atoi(v); err != nil {
				return nil, fmt.Errorf("conceptual: %s.%s: %q is not an integer", class, k, v)
			}
		}
		inst.attrs[k] = v
	}
	for _, def := range c.Attrs {
		if def.Required {
			if _, ok := inst.attrs[def.Name]; !ok {
				return nil, fmt.Errorf("conceptual: %s(%s): required attribute %q missing", class, id, def.Name)
			}
		}
	}
	s.instances[id] = inst
	s.order = append(s.order, id)
	return inst, nil
}

// SetAttrs edits several attributes of one instance, validating the
// whole batch against the class declaration before applying any of it —
// the control plane's validate-then-mutate contract: one bad attribute
// in a PATCH leaves the instance exactly as it was. Required attributes
// cannot be cleared to "". The edit never writes the instance the store
// holds: it puts a copy with the batch applied in its place, so an
// instance handed out earlier reads as it did. Like every Store method
// it is not safe beside another: a store a core.App holds is edited by
// App.EditDocument inside one mutation, which is how the server edits,
// and by other callers only while no mutation runs.
func (s *Store) SetAttrs(id string, set map[string]string) error {
	if len(set) == 0 {
		return fmt.Errorf("conceptual: no attributes to set on %q", id)
	}
	inst := s.instances[id]
	if inst == nil {
		return fmt.Errorf("conceptual: unknown instance %q", id)
	}
	for name, value := range set {
		if err := s.validateAttr(inst, name, value); err != nil {
			return err
		}
	}
	edited := &Instance{ID: inst.ID, Class: inst.Class, attrs: maps.Clone(inst.attrs)}
	maps.Copy(edited.attrs, set)
	s.instances[id] = edited
	return nil
}

// validateAttr checks one attribute update against the instance's class
// declaration without applying it.
func (s *Store) validateAttr(inst *Instance, name, value string) error {
	c := s.schema.Class(inst.Class)
	def, ok := c.Attr(name)
	if !ok {
		return fmt.Errorf("conceptual: class %q has no attribute %q", inst.Class, name)
	}
	if def.Type == IntAttr {
		if _, err := strconv.Atoi(value); err != nil {
			return fmt.Errorf("conceptual: %s.%s: %q is not an integer", inst.Class, name, value)
		}
	}
	if def.Required && value == "" {
		return fmt.Errorf("conceptual: %s(%s): required attribute %q cannot be cleared", inst.Class, inst.ID, name)
	}
	return nil
}

// MustAdd is Add that panics, for fixtures.
func (s *Store) MustAdd(class, id string, attrs map[string]string) *Instance {
	inst, err := s.Add(class, id, attrs)
	if err != nil {
		panic(err)
	}
	return inst
}

// Get returns the instance with the given ID, or nil.
func (s *Store) Get(id string) *Instance { return s.instances[id] }

// Len returns the number of instances.
func (s *Store) Len() int { return len(s.order) }

// Instances returns all instances in insertion order.
func (s *Store) Instances() []*Instance {
	out := make([]*Instance, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.instances[id])
	}
	return out
}

// InstancesOf returns the instances of one class, in insertion order.
func (s *Store) InstancesOf(class string) []*Instance {
	var out []*Instance
	for _, id := range s.order {
		if inst := s.instances[id]; inst.Class == class {
			out = append(out, inst)
		}
	}
	return out
}

// Link records that rel holds from instance fromID to instance toID,
// validating end classes and cardinality.
func (s *Store) Link(rel, fromID, toID string) error {
	r := s.schema.Relationship(rel)
	if r == nil {
		return fmt.Errorf("conceptual: unknown relationship %q", rel)
	}
	from := s.instances[fromID]
	if from == nil {
		return fmt.Errorf("conceptual: %s: unknown source instance %q", rel, fromID)
	}
	to := s.instances[toID]
	if to == nil {
		return fmt.Errorf("conceptual: %s: unknown target instance %q", rel, toID)
	}
	if from.Class != r.Source {
		return fmt.Errorf("conceptual: %s: source %s is %q, want %q", rel, fromID, from.Class, r.Source)
	}
	if to.Class != r.Target {
		return fmt.Errorf("conceptual: %s: target %s is %q, want %q", rel, toID, to.Class, r.Target)
	}
	ix := s.index[rel]
	if ix == nil {
		ix = &linkIndex{targets: map[string][]string{}, sources: map[string][]string{}}
		s.index[rel] = ix
	}
	if ix.linked(fromID, toID) {
		return fmt.Errorf("conceptual: %s: duplicate link %s -> %s", rel, fromID, toID)
	}
	// Cardinality: OneToMany/OneToOne restrict the target to one source;
	// ManyToOne/OneToOne restrict the source to one target. Each error
	// names the first link in the way.
	if sources := ix.sources[toID]; len(sources) > 0 && (r.Card == OneToMany || r.Card == OneToOne) {
		return fmt.Errorf("conceptual: %s (%s): target %s already linked from %s", rel, r.Card, toID, sources[0])
	}
	if targets := ix.targets[fromID]; len(targets) > 0 && (r.Card == ManyToOne || r.Card == OneToOne) {
		return fmt.Errorf("conceptual: %s (%s): source %s already linked to %s", rel, r.Card, fromID, targets[0])
	}
	s.links[rel] = append(s.links[rel], linkPair{from: fromID, to: toID})
	ix.targets[fromID] = append(ix.targets[fromID], toID)
	ix.sources[toID] = append(ix.sources[toID], fromID)
	return nil
}

// MustLink is Link that panics, for fixtures.
func (s *Store) MustLink(rel, fromID, toID string) {
	if err := s.Link(rel, fromID, toID); err != nil {
		panic(err)
	}
}

// Related returns the targets related to fromID via rel, in link order.
func (s *Store) Related(fromID, rel string) []*Instance {
	if ix := s.index[rel]; ix != nil {
		return s.instancesByID(ix.targets[fromID])
	}
	return nil
}

// RelatedReverse returns the sources whose rel points at toID. When the
// schema declares an inverse name for rel, traversing by that inverse name
// is equivalent.
func (s *Store) RelatedReverse(toID, rel string) []*Instance {
	if ix := s.index[rel]; ix != nil {
		return s.instancesByID(ix.sources[toID])
	}
	return nil
}

// instancesByID returns the instances with the given IDs, in order; nil
// for none.
func (s *Store) instancesByID(ids []string) []*Instance {
	if len(ids) == 0 {
		return nil
	}
	out := make([]*Instance, len(ids))
	for i, id := range ids {
		out[i] = s.instances[id]
	}
	return out
}

// Traverse follows a relationship by name: a forward name traverses
// source-to-target, a declared inverse name traverses target-to-source.
func (s *Store) Traverse(fromID, relName string) ([]*Instance, error) {
	if s.schema.Relationship(relName) != nil {
		return s.Related(fromID, relName), nil
	}
	for _, r := range s.schema.Relationships() {
		if r.Inverse == relName {
			return s.RelatedReverse(fromID, r.Name), nil
		}
	}
	return nil, fmt.Errorf("conceptual: no relationship or inverse named %q", relName)
}

// LinkCount returns the number of links recorded for rel.
func (s *Store) LinkCount(rel string) int { return len(s.links[rel]) }
