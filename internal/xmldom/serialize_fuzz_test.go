package xmldom

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// treeGen builds a document from fuzz input, one decision per byte. An
// exhausted input reads as zeros, which close every open element, so
// any input yields a finite tree.
type treeGen struct {
	data  []byte
	nodes int
}

func (g *treeGen) next() byte {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return b
}

func (g *treeGen) pick(n int) int { return int(g.next()) % n }

var (
	// genSpaces mixes no namespace, three URIs, and the xml namespace
	// under both of the names the writer accepts for it.
	genSpaces = []string{"", "urn:a", "urn:b", "urn:c", XMLNamespace, "xml"}
	genLocals = []string{"a", "b", "item", "x-y", "lang"}
	// genPrefixes includes ns1 and ns2, so a declaration can take the
	// name the writer would synthesize next.
	genPrefixes = []string{"a", "b", "p", "ns1", "ns2"}
	genDeclURIs = []string{"urn:a", "urn:b", "urn:c", ""}
	genPieces   = []string{"plain", "&", "<", ">", `"`, "\r", "\n", "\t", " ", "\xff", "\xc3", "é", "\uFFFD", "]]>", "]]", "\xed\xa0\x80"}
)

// text concatenates pieces, and now and then raw input bytes, so the
// string can hold every byte the escapers treat specially.
func (g *treeGen) text() string {
	var sb strings.Builder
	for n := g.pick(5); n > 0; n-- {
		i := g.pick(len(genPieces) + 1)
		if i == len(genPieces) {
			sb.WriteByte(g.next())
			sb.WriteByte(g.next())
			continue
		}
		sb.WriteString(genPieces[i])
	}
	return sb.String()
}

func (g *treeGen) element(depth int) *Element {
	g.nodes++
	e := NewElementNS(genSpaces[g.pick(4)], genLocals[g.pick(len(genLocals))])
	for n := g.pick(5); n > 0; n-- {
		switch g.pick(4) {
		case 0: // default namespace declaration, possibly undeclaring
			e.SetAttr("xmlns", genDeclURIs[g.pick(len(genDeclURIs))])
		case 1: // prefixed declaration, possibly rebinding a prefix
			e.SetAttrNS("xmlns", genPrefixes[g.pick(len(genPrefixes))], genDeclURIs[g.pick(3)])
		default: // plain, namespaced or xml: attribute
			e.SetAttrNS(genSpaces[g.pick(len(genSpaces))], genLocals[g.pick(len(genLocals))], g.text())
		}
	}
	for depth < 6 && g.nodes < 200 {
		switch g.pick(8) {
		case 0:
			return e
		case 1, 2:
			e.AppendChild(g.element(depth + 1))
		case 3:
			e.AppendText(g.text())
		case 4: // whitespace-only text, which indentation replaces
			e.AppendText([]string{" ", "\n  ", "\t", ""}[g.pick(4)])
		case 5:
			e.AppendChild(&Text{Data: g.text(), CData: true})
		case 6:
			e.AppendChild(&Comment{Data: g.text()})
		case 7:
			e.AppendChild(&ProcInst{Target: genLocals[g.pick(len(genLocals))], Data: g.text()})
		}
		g.nodes++
	}
	return e
}

// document wraps a generated root in optional top-level comments and
// processing instructions.
func (g *treeGen) document() *Document {
	d := NewDocument(g.element(0))
	if g.pick(2) == 1 {
		d.children = append([]Node{&Comment{Data: g.text()}}, d.children...)
	}
	if g.pick(2) == 1 {
		d.children = append(d.children, &ProcInst{Target: "pi", Data: g.text()})
	}
	return d
}

// checkMatchesReference compares every entry point of the writer with
// the reference serializer on d.
func checkMatchesReference(t *testing.T, d *Document) {
	t.Helper()
	if got, want := d.String(), refString(d); got != want {
		t.Fatalf("String:\n got %q\nwant %q", got, want)
	}
	if got, want := d.IndentedString(), refIndentedString(d); got != want {
		t.Fatalf("IndentedString:\n got %q\nwant %q", got, want)
	}
	if got := string(d.AppendIndented([]byte("prefix"))); got != "prefix"+refIndentedString(d) {
		t.Fatalf("AppendIndented does not extend dst with IndentedString:\n got %q", got)
	}
	// The split writes the same bytes, cut once past the root's start
	// tag and once past each child element, each piece a whole element.
	root := d.Root()
	split, bounds := d.AppendIndentedSplit(nil, nil)
	if got, want := string(split), refIndentedString(d); got != want {
		t.Fatalf("AppendIndentedSplit:\n got %q\nwant %q", got, want)
	}
	wantBounds := 0
	if len(root.Children()) > 0 {
		wantBounds = 1 + len(root.ChildElements())
	}
	if len(bounds) != wantBounds {
		t.Fatalf("AppendIndentedSplit reports %d bounds for a root with %d children, %d elements", len(bounds), len(root.Children()), len(root.ChildElements()))
	}
	for k := 1; k < len(bounds); k++ {
		if bounds[k] <= bounds[k-1] || split[bounds[k]-1] != '>' {
			t.Fatalf("bound %d at %d does not end an element: %v in %q", k, bounds[k], bounds, split)
		}
	}
	opts := WriteOptions{Indent: "\t ", Declaration: true}
	var got, want bytes.Buffer
	if err := d.Write(&got, opts); err != nil {
		t.Fatal(err)
	}
	if err := refWrite(d, &want, opts); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("Write with indent %q:\n got %q\nwant %q", opts.Indent, got.String(), want.String())
	}
	if got, want := OuterXML(root), refOuterXML(root); got != want {
		t.Fatalf("OuterXML(root):\n got %q\nwant %q", got, want)
	}
	// A nested element serializes without its ancestors' bindings.
	if inner := root.FirstChildElement("*"); inner != nil {
		if got, want := OuterXML(inner), refOuterXML(inner); got != want {
			t.Fatalf("OuterXML(inner):\n got %q\nwant %q", got, want)
		}
	}
}

// FuzzSerializeMatchesReference checks the append-only writer against
// the reference serializer byte for byte, over trees with default,
// prefixed and rebound namespaces, synthesized nsN prefixes, xml:
// attributes, every escaped character, invalid UTF-8, CDATA holding
// "]]>", comments, processing instructions and mixed content under
// indentation. The seed corpus lives in testdata/fuzz.
func FuzzSerializeMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("a rather ordinary input that builds a few nested elements"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkMatchesReference(t, (&treeGen{data: data}).document())
	})
}

// TestSerializeMatchesReferenceSeeded runs the generator over a fixed
// spread of pseudo-random inputs, so every test run covers far more
// trees than the checked-in corpus without the fuzzing engine.
func TestSerializeMatchesReferenceSeeded(t *testing.T) {
	state := uint64(1)
	data := make([]byte, 512)
	for i := 0; i < 2000; i++ {
		for j := range data {
			state = state*6364136223846793005 + 1442695040888963407
			data[j] = byte(state >> 56)
		}
		checkMatchesReference(t, (&treeGen{data: data}).document())
	}
}

// TestSerializeConcurrent serializes different trees from several
// goroutines at once: they share the pooled buffers, the xml root scope
// and the escape tables, so run it under -race.
func TestSerializeConcurrent(t *testing.T) {
	docs := make([]*Document, 8)
	for i := range docs {
		docs[i] = (&treeGen{data: bytes.Repeat([]byte{byte(i + 1), 7, 3, 250, 41}, 60)}).document()
	}
	var wg sync.WaitGroup
	for _, d := range docs {
		wg.Add(1)
		go func(d *Document) {
			defer wg.Done()
			want := refIndentedString(d)
			for i := 0; i < 50; i++ {
				if d.IndentedString() != want || d.String() != refString(d) {
					t.Error("concurrent serialization differs from the reference")
					return
				}
			}
		}(d)
	}
	wg.Wait()
}

// TestWriteFlushesInChunks checks that Write hands a large document to
// its writer in bounded chunks whose concatenation is the document.
func TestWriteFlushesInChunks(t *testing.T) {
	root := NewElement("big")
	for i := 0; i < 20000; i++ {
		root.AddElement("row").SetAttr("n", "a & b").AppendText("text < 1")
	}
	d := NewDocument(root)
	var w chunkWriter
	if err := d.Write(&w, WriteOptions{Indent: "  "}); err != nil {
		t.Fatal(err)
	}
	if w.writes < 2 {
		t.Errorf("a %d-byte document went out in %d write(s)", w.buf.Len(), w.writes)
	}
	if w.max > 2*flushAt {
		t.Errorf("largest write = %d bytes, want at most %d", w.max, 2*flushAt)
	}
	var want bytes.Buffer
	_ = refWrite(d, &want, WriteOptions{Indent: "  "})
	if w.buf.String() != want.String() {
		t.Error("chunked output differs from the reference")
	}
}

type chunkWriter struct {
	buf         bytes.Buffer
	writes, max int
}

func (w *chunkWriter) Write(p []byte) (int, error) {
	w.writes++
	if len(p) > w.max {
		w.max = len(p)
	}
	return w.buf.Write(p)
}
