package conceptual

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// scanLink is the check Link made before its links were indexed, a scan
// of the relationship's links: the error Link must return, or nil.
func scanLink(s *Store, rel, fromID, toID string) error {
	r := s.schema.Relationship(rel)
	if r == nil {
		return fmt.Errorf("conceptual: unknown relationship %q", rel)
	}
	from, to := s.instances[fromID], s.instances[toID]
	switch {
	case from == nil:
		return fmt.Errorf("conceptual: %s: unknown source instance %q", rel, fromID)
	case to == nil:
		return fmt.Errorf("conceptual: %s: unknown target instance %q", rel, toID)
	case from.Class != r.Source:
		return fmt.Errorf("conceptual: %s: source %s is %q, want %q", rel, fromID, from.Class, r.Source)
	case to.Class != r.Target:
		return fmt.Errorf("conceptual: %s: target %s is %q, want %q", rel, toID, to.Class, r.Target)
	}
	for _, p := range s.links[rel] {
		if p.from == fromID && p.to == toID {
			return fmt.Errorf("conceptual: %s: duplicate link %s -> %s", rel, fromID, toID)
		}
	}
	if r.Card == OneToMany || r.Card == OneToOne {
		for _, p := range s.links[rel] {
			if p.to == toID {
				return fmt.Errorf("conceptual: %s (%s): target %s already linked from %s", rel, r.Card, toID, p.from)
			}
		}
	}
	if r.Card == ManyToOne || r.Card == OneToOne {
		for _, p := range s.links[rel] {
			if p.from == fromID {
				return fmt.Errorf("conceptual: %s (%s): source %s already linked to %s", rel, r.Card, fromID, p.to)
			}
		}
	}
	return nil
}

// scanRelated and scanRelatedReverse are Related and RelatedReverse as
// scans of the relationship's links.
func scanRelated(s *Store, fromID, rel string) []*Instance {
	var out []*Instance
	for _, p := range s.links[rel] {
		if p.from == fromID {
			out = append(out, s.instances[p.to])
		}
	}
	return out
}

func scanRelatedReverse(s *Store, toID, rel string) []*Instance {
	var out []*Instance
	for _, p := range s.links[rel] {
		if p.to == toID {
			out = append(out, s.instances[p.from])
		}
	}
	return out
}

// scanTraverse is Traverse over the scans.
func scanTraverse(s *Store, fromID, relName string) ([]*Instance, error) {
	if s.schema.Relationship(relName) != nil {
		return scanRelated(s, fromID, relName), nil
	}
	for _, r := range s.schema.Relationships() {
		if r.Inverse == relName {
			return scanRelatedReverse(s, fromID, r.Name), nil
		}
	}
	return nil, fmt.Errorf("conceptual: no relationship or inverse named %q", relName)
}

// TestLinkIndexMatchesScan: seeded random links over relationships of
// every cardinality, between instances of the right classes, the wrong
// ones and none, fail with the error the scanning check returns, naming
// the same link in the way; and Related, RelatedReverse and Traverse by
// every name return what the scans return, in the same order.
func TestLinkIndexMatchesScan(t *testing.T) {
	schema := NewSchema()
	schema.MustAddClass(NewClass("A"))
	schema.MustAddClass(NewClass("B"))
	cards := []Cardinality{OneToOne, OneToMany, ManyToOne, ManyToMany}
	var names []string
	for i, card := range cards {
		name := fmt.Sprintf("r%d", i)
		schema.MustAddRelationship(&Relationship{Name: name, Source: "A", Target: "B", Card: card, Inverse: "inv" + name})
		names = append(names, name, "inv"+name)
	}
	schema.MustAddRelationship(&Relationship{Name: "self", Source: "A", Target: "A", Card: ManyToMany})
	names = append(names, "self", "unknown")

	store := NewStore(schema)
	var ids []string
	for i := 0; i < 12; i++ {
		for _, class := range []string{"A", "B"} {
			id := fmt.Sprintf("%s%d", class, i)
			store.MustAdd(class, id, nil)
			ids = append(ids, id)
		}
	}
	ids = append(ids, "missing")

	rng := rand.New(rand.NewSource(5))
	failures := map[bool]int{}
	for step := 0; step < 3000; step++ {
		rel, from, to := names[rng.Intn(len(names))], ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
		want := scanLink(store, rel, from, to)
		got := store.Link(rel, from, to)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("step %d: Link(%s, %s, %s) = %v, the scan says %v", step, rel, from, to, got, want)
		}
		failures[got != nil]++
		if step%100 != 0 {
			continue
		}
		for _, name := range names {
			for _, id := range ids {
				if got, want := store.Related(id, name), scanRelated(store, id, name); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: Related(%s, %s) = %v, the scan says %v", step, id, name, got, want)
				}
				if got, want := store.RelatedReverse(id, name), scanRelatedReverse(store, id, name); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: RelatedReverse(%s, %s) = %v, the scan says %v", step, id, name, got, want)
				}
				got, err := store.Traverse(id, name)
				want, wantErr := scanTraverse(store, id, name)
				if !reflect.DeepEqual(got, want) || fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("step %d: Traverse(%s, %s) = %v, %v; the scan says %v, %v", step, id, name, got, err, want, wantErr)
				}
			}
		}
	}
	if failures[true] == 0 || failures[false] == 0 {
		t.Fatalf("links accepted and rejected: %v", failures)
	}
}
