package navigation_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/navigation"
)

// randomContexts draws n linkbase contexts with names, titles and labels
// full of characters the serializer escapes, hubs or none, and edges of
// every kind and show behaviour.
func randomContexts(rng *rand.Rand, n int) []*navigation.LinkbaseContext {
	words := []string{"Guitar", `<Les "Demoiselles">`, "Avignon & Co", "Café", "tab\there", "line\nbreak", "x"}
	kinds := []navigation.EdgeKind{navigation.EdgeMember, navigation.EdgeUp, navigation.EdgeNext,
		navigation.EdgePrev, navigation.EdgePage, "custom"}
	shows := []string{"", "replace", "new", "embed"}
	word := func() string { return words[rng.Intn(len(words))] }
	out := make([]*navigation.LinkbaseContext, n)
	for i := range out {
		lc := &navigation.LinkbaseContext{
			Name:       fmt.Sprintf("Family:%s%d", word(), i),
			AccessKind: []string{"index", "guided-tour", "indexed-guided-tour", "menu"}[rng.Intn(4)],
			HasHub:     rng.Intn(2) == 0,
			NodeTitles: map[string]string{},
		}
		for m := rng.Intn(6); m > 0; m-- {
			id := fmt.Sprintf("n%d", rng.Intn(40))
			if _, dup := lc.NodeTitles[id]; dup {
				continue
			}
			lc.Order = append(lc.Order, id)
			lc.NodeTitles[id] = word()
		}
		ends := lc.Order
		if lc.HasHub {
			ends = append([]string{navigation.HubID}, ends...)
		}
		for e := rng.Intn(8); e > 0 && len(ends) > 0; e-- {
			lc.Edges = append(lc.Edges, navigation.Edge{
				From: ends[rng.Intn(len(ends))], To: ends[rng.Intn(len(ends))],
				Kind: kinds[rng.Intn(len(kinds))], Label: word(), Show: shows[rng.Intn(len(shows))],
			})
		}
		out[i] = lc
	}
	return out
}

// checkText asserts that text is what the whole linkbase of contexts
// serializes to, at its exact size, with every context's bytes where
// its offsets say: the same bytes the context has when rendered alone.
func checkText(t *testing.T, what string, text navigation.LinkbaseText, contexts []*navigation.LinkbaseContext) {
	t.Helper()
	want := navigation.BuildLinkbase(contexts).AppendIndented(nil)
	if got := text.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("%s: text\n%s\nwhole linkbase\n%s", what, got, want)
	}
	if got := text.Bytes(); cap(got) != len(got) {
		t.Fatalf("%s: body cap %d, len %d", what, cap(got), len(got))
	}
	if text.Len() != len(contexts) {
		t.Fatalf("%s: %d contexts, want %d", what, text.Len(), len(contexts))
	}
	for k := range contexts {
		alone, _, err := navigation.NewLinkbaseText(contexts[k : k+1])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(text.Link(k), alone.Link(0)) {
			t.Fatalf("%s: context %d reads\n%q\nrendered alone\n%q", what, k, text.Link(k), alone.Link(0))
		}
	}
}

// TestLinkbaseTextSplice: splicing random changes into a linkbase gives
// the bytes of the whole new linkbase, the changed contexts read back
// as ParseLinkbase reads them, and leaves the old text as it was.
func TestLinkbaseTextSplice(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for round := 0; round < 200; round++ {
		contexts := randomContexts(rng, 1+rng.Intn(6))
		text, parsed, err := navigation.NewLinkbaseText(contexts)
		if err != nil {
			t.Fatal(err)
		}
		checkText(t, "built", text, contexts)
		whole, err := navigation.ParseLinkbase(navigation.BuildLinkbase(contexts))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(parsed, whole) {
			t.Fatalf("round %d: read back %v, ParseLinkbase reads %v", round, parsed, whole)
		}

		before := bytes.Clone(text.Bytes())
		next := append([]*navigation.LinkbaseContext(nil), contexts...)
		var changed []int
		replacements := randomContexts(rng, len(contexts))
		for i := range next {
			if rng.Intn(3) == 0 {
				next[i] = replacements[i]
				changed = append(changed, i)
			}
		}
		spliced, fresh, err := text.Splice(next, changed)
		if err != nil {
			t.Fatal(err)
		}
		checkText(t, fmt.Sprintf("round %d, changed %v", round, changed), spliced, next)
		if !bytes.Equal(text.Bytes(), before) {
			t.Fatalf("round %d: Splice changed the text it spliced from", round)
		}
		if len(changed) == 0 && &spliced.Bytes()[0] != &text.Bytes()[0] {
			t.Fatalf("round %d: a splice of nothing made a new body", round)
		}
		for k, i := range changed {
			want, err := navigation.ParseLinkbase(navigation.BuildLinkbase(next[i : i+1]))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fresh[k], want[0]) {
				t.Fatalf("round %d: context %d read back as %v, want %v", round, i, fresh[k], want[0])
			}
		}
	}
}

// TestLinkbaseTextEmpty: a linkbase with no contexts keeps its
// self-closing root, and splicing nothing into it is the identity.
func TestLinkbaseTextEmpty(t *testing.T) {
	text, parsed, err := navigation.NewLinkbaseText(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := `<?xml version="1.0" encoding="UTF-8"?>` + "\n" + `<links xmlns:xlink="http://www.w3.org/1999/xlink"/>` + "\n"
	if string(text.Bytes()) != want || text.Len() != 0 || len(parsed) != 0 {
		t.Fatalf("empty linkbase: %q, %d contexts, %d read back", text.Bytes(), text.Len(), len(parsed))
	}
	same, _, err := text.Splice(nil, nil)
	if err != nil || string(same.Bytes()) != want {
		t.Fatalf("splicing nothing: %q, %v", same.Bytes(), err)
	}
}

// TestLinkbaseTextSpliceRejects: a context list of another length and
// positions out of order or range are errors, not corrupt bytes.
func TestLinkbaseTextSpliceRejects(t *testing.T) {
	contexts := randomContexts(rand.New(rand.NewSource(1)), 3)
	text, _, err := navigation.NewLinkbaseText(contexts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		contexts []*navigation.LinkbaseContext
		changed  []int
	}{
		{contexts[:2], []int{0}},
		{contexts, []int{2, 1}},
		{contexts, []int{1, 1}},
		{contexts, []int{3}},
		{contexts, []int{-1}},
	} {
		if _, _, err := text.Splice(tc.contexts, tc.changed); err == nil {
			t.Errorf("Splice of %d contexts at %v: no error", len(tc.contexts), tc.changed)
		}
	}
	empty, _, err := navigation.NewLinkbaseText(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := empty.Splice(nil, []int{0}); err == nil {
		t.Error("Splice into a linkbase with no contexts: no error")
	}
}
