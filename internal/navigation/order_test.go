package navigation

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"repro/internal/conceptual"
)

// orderNodesReference is the sort orderNodes replaced: it reads and
// parses both keys inside every comparison. orderNodes must order every
// slice exactly as it does, including slices whose mixed numeric and
// non-numeric keys make the comparison intransitive.
func orderNodesReference(nodes []*Node, attr string) {
	sort.SliceStable(nodes, func(i, j int) bool {
		a, b := nodes[i].Instance.Attr(attr), nodes[j].Instance.Attr(attr)
		ai, aerr := strconv.Atoi(a)
		bi, berr := strconv.Atoi(b)
		if aerr == nil && berr == nil {
			return ai < bi
		}
		return a < b
	})
}

func TestOrderNodesMatchesReference(t *testing.T) {
	s := conceptual.NewSchema()
	s.MustAddClass(conceptual.NewClass("Item", conceptual.AttrDef{Name: "k", Type: conceptual.StringAttr}))
	store := conceptual.NewStore(s)
	nc := &NodeClass{Name: "ItemNode", Class: "Item"}
	// Numeric, signed, zero-padded and non-numeric keys, with repeats so
	// stability matters, and the empty key.
	pool := []string{"0", "7", "07", "007", "-3", "+3", "-0", "10", "9", "1910", "", "a", "B", "10a", " 5", "x9", "Work 2", "Work 10"}
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 300; round++ {
		n := rng.Intn(60)
		got := make([]*Node, n)
		for i := range got {
			inst := store.MustAdd("Item", fmt.Sprintf("i%d_%d", round, i),
				map[string]string{"k": pool[rng.Intn(len(pool))]})
			got[i] = nodeOf(nc, inst)
		}
		want := append([]*Node(nil), got...)
		orderNodes(got, "k")
		orderNodesReference(want, "k")
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("round %d: position %d is %s (%q), reference has %s (%q)", round, i,
					got[i].ID(), got[i].Instance.Attr("k"), want[i].ID(), want[i].Instance.Attr("k"))
			}
		}
	}
}

// TestOrderKeyNumericMatchesAtoi: a key is numeric exactly when
// strconv.Atoi parses it, with the same value, though atoi calls Atoi
// only on keys that start with an ASCII digit or a sign.
func TestOrderKeyNumericMatchesAtoi(t *testing.T) {
	keys := []string{"", "+", "-", " 5", "5 ", "1_000", "0x10", "٣", "123456789012345678901234567890",
		"0", "-0", "+3", "-3", "007", "1910", "Work 2", "x9", "10a", "-a", "+-1", "\xff"}
	for _, k := range keys {
		want, err := strconv.Atoi(k)
		got, numeric := atoi(k)
		if numeric != (err == nil) || got != want && numeric {
			t.Errorf("atoi(%q) = %d, %v; strconv.Atoi gives %d, %v", k, got, numeric, want, err)
		}
	}
}
