// Package conceptual implements the conceptual-model layer of the paper's
// architecture: the application's classes, attributes and relationships,
// independent of both navigation and presentation.
//
// OOHDM (the methodology the paper builds on) designs a web application in
// three models: the conceptual model (this package), the navigational model
// (package navigation — views over these classes), and the abstract
// interface model (package presentation). Keeping the three apart is
// precisely the separation the paper argues for; this package owns only
// "what the domain is", never "how it is traversed or shown".
package conceptual

import (
	"fmt"
	"sort"
)

// AttrType is the value type of a class attribute.
type AttrType int

// Attribute types.
const (
	StringAttr AttrType = iota + 1
	IntAttr
)

// String names the attribute type.
func (t AttrType) String() string {
	switch t {
	case StringAttr:
		return "string"
	case IntAttr:
		return "int"
	default:
		return "unknown"
	}
}

// AttrDef declares one attribute of a class.
type AttrDef struct {
	Name     string
	Type     AttrType
	Required bool
}

// Class is a conceptual class: a named set of attribute declarations.
type Class struct {
	Name  string
	Attrs []AttrDef

	attrIndex map[string]int
}

// NewClass declares a class with the given attributes.
func NewClass(name string, attrs ...AttrDef) *Class {
	c := &Class{Name: name, Attrs: attrs, attrIndex: make(map[string]int, len(attrs))}
	for i, a := range attrs {
		c.attrIndex[a.Name] = i
	}
	return c
}

// Attr returns the declaration of the named attribute.
func (c *Class) Attr(name string) (AttrDef, bool) {
	i, ok := c.attrIndex[name]
	if !ok {
		return AttrDef{}, false
	}
	return c.Attrs[i], true
}

// Cardinality constrains how many instances may participate on each side
// of a relationship.
type Cardinality int

// Relationship cardinalities (source-to-target).
const (
	OneToOne Cardinality = iota + 1
	OneToMany
	ManyToOne
	ManyToMany
)

// String names the cardinality.
func (c Cardinality) String() string {
	switch c {
	case OneToOne:
		return "1:1"
	case OneToMany:
		return "1:N"
	case ManyToOne:
		return "N:1"
	case ManyToMany:
		return "N:M"
	default:
		return "unknown"
	}
}

// Relationship declares a named, directed relationship between classes.
type Relationship struct {
	// Name is the forward traversal name (e.g. "paints").
	Name string
	// Source and Target are class names.
	Source string
	Target string
	// Card constrains participation, read source-to-target.
	Card Cardinality
	// Inverse, when non-empty, names the reverse traversal
	// (e.g. "paintedBy").
	Inverse string
}

// Schema is a set of classes and relationships.
type Schema struct {
	classes map[string]*Class
	rels    map[string]*Relationship
	// ordered names for deterministic iteration
	classOrder []string
	relOrder   []string
}

// NewSchema returns an empty schema.
func NewSchema() *Schema {
	return &Schema{
		classes: map[string]*Class{},
		rels:    map[string]*Relationship{},
	}
}

// AddClass registers a class; redefinition is an error.
func (s *Schema) AddClass(c *Class) error {
	if c == nil || c.Name == "" {
		return fmt.Errorf("conceptual: class must have a name")
	}
	if _, dup := s.classes[c.Name]; dup {
		return fmt.Errorf("conceptual: class %q already defined", c.Name)
	}
	s.classes[c.Name] = c
	s.classOrder = append(s.classOrder, c.Name)
	return nil
}

// MustAddClass is AddClass that panics, for statically known schemas.
func (s *Schema) MustAddClass(c *Class) {
	if err := s.AddClass(c); err != nil {
		panic(err)
	}
}

// AddRelationship registers a relationship; both end classes must exist.
func (s *Schema) AddRelationship(r *Relationship) error {
	if r == nil || r.Name == "" {
		return fmt.Errorf("conceptual: relationship must have a name")
	}
	if _, dup := s.rels[r.Name]; dup {
		return fmt.Errorf("conceptual: relationship %q already defined", r.Name)
	}
	if _, ok := s.classes[r.Source]; !ok {
		return fmt.Errorf("conceptual: relationship %q: unknown source class %q", r.Name, r.Source)
	}
	if _, ok := s.classes[r.Target]; !ok {
		return fmt.Errorf("conceptual: relationship %q: unknown target class %q", r.Name, r.Target)
	}
	if r.Card == 0 {
		r.Card = ManyToMany
	}
	if r.Inverse != "" {
		if _, dup := s.rels[r.Inverse]; dup {
			return fmt.Errorf("conceptual: inverse name %q collides with existing relationship", r.Inverse)
		}
	}
	s.rels[r.Name] = r
	s.relOrder = append(s.relOrder, r.Name)
	return nil
}

// MustAddRelationship is AddRelationship that panics.
func (s *Schema) MustAddRelationship(r *Relationship) {
	if err := s.AddRelationship(r); err != nil {
		panic(err)
	}
}

// Class returns the named class, or nil.
func (s *Schema) Class(name string) *Class { return s.classes[name] }

// Relationship returns the named (forward) relationship, or nil.
func (s *Schema) Relationship(name string) *Relationship { return s.rels[name] }

// Classes returns all classes in declaration order.
func (s *Schema) Classes() []*Class {
	out := make([]*Class, 0, len(s.classOrder))
	for _, n := range s.classOrder {
		out = append(out, s.classes[n])
	}
	return out
}

// Relationships returns all relationships in declaration order.
func (s *Schema) Relationships() []*Relationship {
	out := make([]*Relationship, 0, len(s.relOrder))
	for _, n := range s.relOrder {
		out = append(out, s.rels[n])
	}
	return out
}

// Instance is one object of a conceptual class. It is immutable once
// its store holds it: Store.SetAttrs puts a new instance in its place
// rather than writing this one, so its attributes read without a lock
// from any goroutine.
type Instance struct {
	// ID uniquely identifies the instance within a Store.
	ID string
	// Class names the instance's class.
	Class string

	attrs map[string]string
}

// Attr returns the named attribute value ("" when unset).
func (i *Instance) Attr(name string) string { return i.attrs[name] }

// AttrOK returns the named attribute value and whether it is set.
func (i *Instance) AttrOK(name string) (string, bool) {
	v, ok := i.attrs[name]
	return v, ok
}

// AttrNames returns the set attribute names, sorted.
func (i *Instance) AttrNames() []string {
	out := make([]string, 0, len(i.attrs))
	for k := range i.attrs {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// String renders the instance for diagnostics.
func (i *Instance) String() string {
	return fmt.Sprintf("%s(%s)", i.Class, i.ID)
}
