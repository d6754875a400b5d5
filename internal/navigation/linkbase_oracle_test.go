package navigation_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/museum"
	"repro/internal/navigation"
)

// picker draws the choices that make a context list from a byte string,
// so a fuzzer steers every one: each byte picks a count, a flag or a
// word, and some strings are the bytes themselves. An exhausted picker
// picks zero.
type picker struct{ data []byte }

func (p *picker) intn(n int) int {
	if len(p.data) == 0 {
		return 0
	}
	b := p.data[0]
	p.data = p.data[1:]
	return int(b) % n
}

// words are strings full of what the serializer escapes or replaces:
// markup characters, whitespace it writes as character references and
// invalid UTF-8, which it writes as U+FFFD.
var words = []string{"", "Guitar", `<Les "Demoiselles">`, "Avignon & Co", "d'Avignon", "Café",
	"tab\there", "cr\rlf\n", "\xff", "cut\xe2\x82", navigation.HubID}

// word draws a word, or up to seven raw bytes of the input.
func (p *picker) word() string {
	if k := p.intn(len(words) + 1); k < len(words) {
		return words[k]
	}
	n := min(p.intn(8), len(p.data))
	s := string(p.data[:n])
	p.data = p.data[n:]
	return s
}

// edgeKinds holds every edge kind, custom ones with characters the
// serializer escapes, and the empty kind, whose arcrole ParseLinkbase
// rejects.
var edgeKinds = []navigation.EdgeKind{navigation.EdgeMember, navigation.EdgeUp, navigation.EdgeNext,
	navigation.EdgePrev, navigation.EdgePage, "custom", "x&<y>", "\xff"}

// shows holds every xlink:show value, and the empty one BuildLinkbase
// defaults.
var shows = []string{"", "replace", "new", "embed", "other", "none"}

// label draws an arc's label: mostly an endpoint's, sometimes the empty
// label that selects every endpoint, rarely one that names none.
func (p *picker) label(ends []string) string {
	switch k := p.intn(128); {
	case k < 120 && len(ends) > 0:
		return ends[k%len(ends)]
	case k < 127:
		return ""
	}
	return "ghost"
}

// contexts decodes a context list: contexts with and without a hub,
// members or edges, member ids that repeat, titles missing or for
// ids that are not members, and arcs of every kind and show, now and
// then one the XLink processor or ParseLinkbase rejects.
func (p *picker) contexts(n int) []*navigation.LinkbaseContext {
	var out []*navigation.LinkbaseContext
	for ; n > 0; n-- {
		lc := &navigation.LinkbaseContext{
			Name:       p.word(),
			AccessKind: []string{"index", "guided-tour", "menu", p.word()}[p.intn(4)],
			HasHub:     p.intn(2) == 0,
			NodeTitles: map[string]string{},
		}
		for m := p.intn(6); m > 0; m-- {
			id := []string{"n0", "n1", "n2", "n3", navigation.HubID, p.word()}[p.intn(6)]
			lc.Order = append(lc.Order, id)
			if p.intn(8) > 0 {
				lc.NodeTitles[id] = p.word()
			}
		}
		if p.intn(8) == 0 {
			lc.NodeTitles["stray"] = p.word()
		}
		ends := lc.Order
		if lc.HasHub {
			ends = append([]string{navigation.HubID}, ends...)
		}
		for e := p.intn(7); e > 0; e-- {
			edge := navigation.Edge{From: p.label(ends), To: p.label(ends),
				Kind: edgeKinds[p.intn(len(edgeKinds))], Label: p.word(), Show: shows[p.intn(len(shows))]}
			switch p.intn(256) {
			case 0:
				edge.Kind = ""
			case 1:
				edge.Show = "explode"
			}
			lc.Edges = append(lc.Edges, edge)
		}
		out = append(out, lc)
	}
	return out
}

// treeText is the slow twin of NewLinkbaseText: the linkbase built as a
// tree, read back with ParseLinkbase and serialized.
func treeText(contexts []*navigation.LinkbaseContext) ([]byte, []int, []*navigation.LinkbaseContext, error) {
	doc := navigation.BuildLinkbase(contexts)
	parsed, err := navigation.ParseLinkbase(doc)
	if err != nil {
		return nil, nil, nil, err
	}
	body, at := doc.AppendIndentedSplit(nil, nil)
	return body, at, parsed, nil
}

// sameError reports whether two errors are both nil or say the same.
func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// checkWriter asserts that NewLinkbaseText writes what the tree round
// trip writes, at its exact size and split where it splits, reads back
// what it reads back, and fails exactly where it fails, with its error.
func checkWriter(t *testing.T, contexts []*navigation.LinkbaseContext) (navigation.LinkbaseText, bool) {
	t.Helper()
	body, at, parsed, err := treeText(contexts)
	text, gotParsed, gotErr := navigation.NewLinkbaseText(contexts)
	if !sameError(gotErr, err) {
		t.Fatalf("writer fails with %v, the tree round trip with %v", gotErr, err)
	}
	if err != nil {
		return text, false
	}
	if got := text.Bytes(); !bytes.Equal(got, body) {
		t.Fatalf("writer writes\n%q\nthe serializer\n%q", got, body)
	}
	if got := text.Bytes(); cap(got) != len(got) {
		t.Fatalf("body cap %d, len %d", cap(got), len(got))
	}
	if got := navigation.LinkbaseOffsets(text); !reflect.DeepEqual(got, at) {
		t.Fatalf("writer splits at %v, the serializer at %v", got, at)
	}
	if !reflect.DeepEqual(gotParsed, parsed) {
		t.Fatalf("writer reads back\n%#v\nParseLinkbase reads\n%#v", gotParsed, parsed)
	}
	return text, true
}

// checkSplice asserts that splicing the contexts at changed into text
// gives the whole new linkbase as the tree round trip makes it, and the
// changed contexts as each reads back alone, or the error the first
// changed context that the tree round trip rejects alone fails with.
func checkSplice(t *testing.T, text navigation.LinkbaseText, next []*navigation.LinkbaseContext, changed []int) {
	t.Helper()
	var err error
	want := make([]*navigation.LinkbaseContext, len(changed))
	for k, i := range changed {
		var one []*navigation.LinkbaseContext
		if _, _, one, err = treeText(next[i : i+1]); err != nil {
			break
		}
		want[k] = one[0]
	}
	spliced, parsed, gotErr := text.Splice(next, changed)
	if !sameError(gotErr, err) {
		t.Fatalf("Splice at %v fails with %v, the tree round trip with %v", changed, gotErr, err)
	}
	if err != nil {
		return
	}
	if len(changed) == 0 {
		want = nil
	}
	if !reflect.DeepEqual(parsed, want) {
		t.Fatalf("Splice at %v reads back\n%#v\nParseLinkbase reads\n%#v", changed, parsed, want)
	}
	body, at, _, err := treeText(next)
	if err != nil {
		t.Fatalf("the spliced contexts read back alone but not together: %v", err)
	}
	if got := spliced.Bytes(); !bytes.Equal(got, body) || cap(got) != len(got) {
		t.Fatalf("Splice at %v writes (cap %d)\n%q\nthe serializer\n%q", changed, cap(got), got, body)
	}
	if got := navigation.LinkbaseOffsets(spliced); !reflect.DeepEqual(got, at) {
		t.Fatalf("Splice at %v splits at %v, the serializer at %v", changed, got, at)
	}
}

// checkAgainstTree decodes a context list from data, checks the writer
// on it, then decodes replacements for some of its contexts from what
// is left and checks splicing them in.
func checkAgainstTree(t *testing.T, data []byte) {
	p := &picker{data}
	contexts := p.contexts(p.intn(6))
	text, ok := checkWriter(t, contexts)
	if !ok {
		return
	}
	next := append([]*navigation.LinkbaseContext(nil), contexts...)
	var changed []int
	for i := range next {
		if p.intn(3) == 0 {
			next[i] = p.contexts(1)[0]
			changed = append(changed, i)
		}
	}
	checkSplice(t, text, next, changed)
}

// TestLinkbaseWriterMatchesTree is the writer's differential oracle:
// seeded random context lists, and the museums' own, written in one
// pass and through the tree round trip, agree byte for byte, offset for
// offset, context for context and error for error.
func TestLinkbaseWriterMatchesTree(t *testing.T) {
	rounds := 3000
	if testing.Short() {
		rounds = 500
	}
	rng := rand.New(rand.NewSource(20))
	// failed counts the lists rejected, by the error's cause.
	failed := map[string]int{}
	causes := []string{"invalid xlink:show", "matches no locator", "non-nav arcrole"}
	for round := 0; round < rounds; round++ {
		data := make([]byte, rng.Intn(256))
		rng.Read(data)
		if _, _, err := navigation.NewLinkbaseText((&picker{data}).contexts(5)); err != nil {
			for _, cause := range causes {
				if strings.Contains(err.Error(), cause) {
					failed[cause]++
				}
			}
			failed["any"]++
		}
		checkAgainstTree(t, data)
	}
	for _, cause := range causes {
		if failed[cause] == 0 {
			t.Errorf("no list failed with %q: %v", cause, failed)
		}
	}
	if failed["any"] > rounds/2 {
		t.Errorf("%d of %d lists failed to read back, want a minority", failed["any"], rounds)
	}
	checkWriter(t, nil)
	checkWriter(t, []*navigation.LinkbaseContext{})
	for _, as := range []navigation.AccessStructure{navigation.Index{}, navigation.GuidedTour{}, navigation.IndexedGuidedTour{}, navigation.Menu{}} {
		for _, store := range []bool{false, true} {
			st := museum.PaperStore()
			if store {
				st = museum.Synthetic(museum.SyntheticSpec{Painters: 6, PaintingsPerPainter: 3, Movements: 2, Seed: 4})
			}
			rm, err := museum.Model(as).Resolve(st)
			if err != nil {
				t.Fatal(err)
			}
			checkWriter(t, navigation.LinkbaseContexts(rm))
		}
	}
}

// copySeeds decode (see picker.contexts) to one context each that
// reads back as a copy, not as itself: the first for an invalid UTF-8
// title, the second for a repeated member id an arc names, the third
// for an arc with an empty label, the fourth for a label naming both a
// member and the hub.
var copySeeds = [][]byte{
	{1, 1, 1, 0, 1, 1, 1, 0, 1, 8, 1, 0},
	{1, 1, 1, 0, 1, 2, 1, 0, 1, 1, 1, 0, 1, 2, 1, 1, 0, 1, 0, 1, 1, 2},
	{1, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 120, 0, 0, 1, 1, 2},
	{1, 1, 1, 0, 0, 1, 1, 4, 1, 1, 1, 1, 0, 1, 0, 1, 1, 2},
}

// TestLinkbaseReadBackSharesRoundTrips: a context that reads back as it
// is comes back from NewLinkbaseText and from Splice as itself, not as
// a copy — every context the museums derive does — and one that reads
// back otherwise comes back as a copy, which checkWriter holds equal to
// ParseLinkbase's. Each of copySeeds decodes to such a context.
func TestLinkbaseReadBackSharesRoundTrips(t *testing.T) {
	st := museum.Synthetic(museum.SyntheticSpec{Painters: 6, PaintingsPerPainter: 3, Movements: 2, Seed: 4})
	rm, err := museum.Model(navigation.IndexedGuidedTour{}).Resolve(st)
	if err != nil {
		t.Fatal(err)
	}
	contexts := navigation.LinkbaseContexts(rm)
	text, ok := checkWriter(t, contexts)
	if !ok {
		t.Fatal("the museum's linkbase does not read back")
	}
	_, parsed, _ := navigation.NewLinkbaseText(contexts)
	for i, lc := range contexts {
		if parsed[i] != lc {
			t.Errorf("context %q reads back as a copy", lc.Name)
		}
	}
	// A fresh derivation of the same contexts, spliced in, comes back as
	// itself too.
	next := navigation.LinkbaseContexts(rm)
	changed := []int{0, len(next) - 1}
	checkSplice(t, text, next, changed)
	_, back, _ := text.Splice(next, changed)
	for k, i := range changed {
		if back[k] != next[i] {
			t.Errorf("spliced context %q reads back as a copy", next[i].Name)
		}
	}

	for i, seed := range copySeeds {
		p := &picker{seed}
		contexts := p.contexts(p.intn(6))
		checkWriter(t, contexts)
		_, parsed, err := navigation.NewLinkbaseText(contexts)
		if err != nil || len(contexts) != 1 || parsed[0] == contexts[0] {
			t.Errorf("copySeeds[%d] decodes to %d contexts (%v), want one read back as a copy: %#v", i, len(contexts), err, contexts)
		}
	}
	// A repeated member id no arc names reads back as it is.
	repeated := &navigation.LinkbaseContext{Name: "r", AccessKind: "index", NodeTitles: map[string]string{"n0": "N"},
		Order: []string{"n0", "n0"}}
	checkWriter(t, []*navigation.LinkbaseContext{repeated})
	if _, parsed, _ := navigation.NewLinkbaseText([]*navigation.LinkbaseContext{repeated}); parsed[0] != repeated {
		t.Error("a repeated member id no arc names reads back as a copy")
	}
}

// FuzzLinkbaseText fuzzes the one-pass writer and Splice against the
// tree round trip over context lists decoded from the input.
func FuzzLinkbaseText(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x03\x01\x02\x00\x05\x04\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c"))
	f.Add([]byte("\x05\x0b\x00\x01\x05\x02\x03\x04\x05\x00\x06\x07\x00\x01\x1f\x3f\x40\xff\xfe\x11"))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		data := make([]byte, 64+64*i)
		rng.Read(data)
		f.Add(data)
	}
	for _, seed := range copySeeds {
		f.Add(seed)
	}
	f.Fuzz(checkAgainstTree)
}
