package xmldom

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, src string) *Document {
	t.Helper()
	doc, err := ParseString(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	out := doc.String()
	doc2, err := ParseString(out)
	if err != nil {
		t.Fatalf("reparse %q: %v", out, err)
	}
	if doc2.String() != out {
		t.Errorf("serialization not a fixpoint:\n first: %s\nsecond: %s", out, doc2.String())
	}
	return doc2
}

func TestRoundTripBasic(t *testing.T) {
	tests := []string{
		`<a/>`,
		`<a x="1" y="two"/>`,
		`<a>text</a>`,
		`<a><b/><c>mixed</c>tail</a>`,
		`<a>&lt;escaped&gt; &amp; "quoted"</a>`,
		`<a attr="&lt;v&gt;&quot;&amp;"/>`,
		`<root><!-- comment --><?pi data?></root>`,
	}
	for _, src := range tests {
		roundTrip(t, src)
	}
}

func TestRoundTripNamespaces(t *testing.T) {
	tests := []string{
		`<links xmlns:xlink="http://www.w3.org/1999/xlink"><l xlink:href="a.xml"/></links>`,
		`<a xmlns="urn:d"><b/></a>`,
		`<a xmlns="urn:d"><b xmlns=""/></a>`,
		`<a xmlns:p="urn:p"><p:b p:x="1"/></a>`,
	}
	for _, src := range tests {
		doc := roundTrip(t, src)
		_ = doc
	}
}

func TestSerializeSynthesizesPrefixes(t *testing.T) {
	// A programmatically built tree with namespaced attrs but no xmlns
	// declarations must still serialize to well-formed, reparseable XML
	// that preserves expanded names.
	e := NewElementNS("urn:space", "root")
	e.SetAttrNS("urn:attr", "kind", "v")
	child := NewElementNS("urn:space", "child")
	e.AppendChild(child)
	doc := NewDocument(e)

	out := doc.String()
	re, err := ParseString(out)
	if err != nil {
		t.Fatalf("reparse %q: %v", out, err)
	}
	if re.Root().Name.Space != "urn:space" {
		t.Errorf("root space = %q, want urn:space", re.Root().Name.Space)
	}
	if v, ok := re.Root().Attr("urn:attr", "kind"); !ok || v != "v" {
		t.Errorf("namespaced attr lost: %q %v in %s", v, ok, out)
	}
	if re.Root().FirstChildElement("child").Name.Space != "urn:space" {
		t.Errorf("child space lost in %s", out)
	}
}

func TestSerializeXMLPrefixedAttr(t *testing.T) {
	e := NewElement("p")
	e.SetAttrNS(XMLNamespace, "id", "guitar")
	out := OuterXML(e)
	if !strings.Contains(out, `xml:id="guitar"`) {
		t.Errorf("xml:id not serialized with reserved prefix: %s", out)
	}
	re, err := ParseString(out)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if v, _ := re.Root().Attr(XMLNamespace, "id"); v != "guitar" {
		t.Errorf("xml:id lost on reparse: %s", out)
	}
}

func TestIndentedOutput(t *testing.T) {
	doc := MustParseString(`<a><b><c/></b><d>text</d></a>`)
	out := doc.IndentedString()
	if !strings.HasPrefix(out, `<?xml version="1.0" encoding="UTF-8"?>`) {
		t.Errorf("missing declaration: %s", out)
	}
	if !strings.Contains(out, "\n  <b>") {
		t.Errorf("b not indented: %s", out)
	}
	if !strings.Contains(out, "<d>text</d>") {
		t.Errorf("text content must not be re-indented: %s", out)
	}
	// Indented output must still parse to an equivalent tree when
	// whitespace is trimmed.
	re, err := ParseWithOptions(strings.NewReader(out), ParseOptions{TrimWhitespace: true})
	if err != nil {
		t.Fatalf("reparse indented: %v", err)
	}
	if re.Root().FirstChildElement("d").Text() != "text" {
		t.Error("text lost through indent round-trip")
	}
}

// TestAppendIndentedSplit: the bounds cut the indented output at the
// root's child elements, each piece holding one child with what is
// written before it; a root without children is self-closing and has
// no bounds.
func TestAppendIndentedSplit(t *testing.T) {
	const decl = `<?xml version="1.0" encoding="UTF-8"?>` + "\n"
	for _, tc := range []struct {
		src    string
		pieces []string
	}{
		{`<r xmlns:p="urn:p"><a p:x="1"/>  <b><c/></b></r>`, []string{
			`pre` + decl + `<r xmlns:p="urn:p">`,
			"\n  <a p:x=\"1\"/>",
			"\n  <b>\n    <c/>\n  </b>",
			"\n</r>\n",
		}},
		{`<r>x<a/>y<b>t</b>z</r>`, []string{`pre` + decl + `<r>`, `x<a/>`, `y<b>t</b>`, "z</r>\n"}},
		{`<r>text</r>`, []string{`pre` + decl + `<r>`, "text</r>\n"}},
		{`<!--c--><r a="1"/>`, []string{`pre` + decl + "<!--c-->\n<r a=\"1\"/>\n"}},
	} {
		doc := MustParseString(tc.src)
		out, bounds := doc.AppendIndentedSplit([]byte("pre"), nil)
		if want := "pre" + doc.IndentedString(); string(out) != want {
			t.Fatalf("%s: AppendIndentedSplit wrote\n%q\nAppendIndented writes\n%q", tc.src, out, want)
		}
		var pieces []string
		from := 0
		for _, b := range bounds {
			pieces = append(pieces, string(out[from:b]))
			from = b
		}
		pieces = append(pieces, string(out[from:]))
		if !slices.Equal(pieces, tc.pieces) {
			t.Errorf("%s: split into\n%q\nwant\n%q", tc.src, pieces, tc.pieces)
		}
	}
}

func TestCDATASerialization(t *testing.T) {
	e := NewElement("script")
	e.AppendChild(&Text{Data: "if (a < b && c > d) {}", CData: true})
	out := OuterXML(e)
	if !strings.Contains(out, "<![CDATA[if (a < b && c > d) {}]]>") {
		t.Errorf("CDATA not emitted: %s", out)
	}
	re, err := ParseString(out)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if got := re.Root().Text(); got != "if (a < b && c > d) {}" {
		t.Errorf("CDATA content lost: %q", got)
	}
	// Embedded terminator must be split safely.
	e2 := NewElement("x")
	e2.AppendChild(&Text{Data: "a]]>b", CData: true})
	re2, err := ParseString(OuterXML(e2))
	if err != nil {
		t.Fatalf("reparse with ]]>: %v", err)
	}
	if got := re2.Root().Text(); got != "a]]>b" {
		t.Errorf("]]> handling lost data: %q", got)
	}
}

func TestEscapeCarriageReturnAndTab(t *testing.T) {
	e := NewElement("a")
	e.SetAttr("v", "line1\nline2\tend")
	e.AppendText("text\rwith cr")
	out := OuterXML(e)
	re, err := ParseString(out)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if got := re.Root().AttrValue("v"); got != "line1\nline2\tend" {
		t.Errorf("attr whitespace not preserved: %q (serialized %s)", got, out)
	}
	if got := re.Root().Text(); !strings.Contains(got, "\r") {
		t.Errorf("carriage return lost from text: %q (serialized %s)", got, out)
	}
}

// genName produces a safe XML local name from arbitrary fuzz input.
func genName(s string) string {
	var sb strings.Builder
	sb.WriteByte('n')
	for _, r := range s {
		if (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9') || r == '-' || r == '_' {
			sb.WriteRune(r)
		}
		if sb.Len() > 10 {
			break
		}
	}
	return sb.String()
}

// genText strips control characters that are not legal in XML 1.0.
func genText(s string) string {
	var sb strings.Builder
	for _, r := range s {
		if r == '\t' || r == '\n' || r == 0x20 || (r > 0x20 && r != 0xFFFE && r != 0xFFFF && (r < 0xD800 || r > 0xDFFF)) {
			sb.WriteRune(r)
		}
		if sb.Len() > 40 {
			break
		}
	}
	return sb.String()
}

// TestQuickRoundTrip property-tests that any tree built from generated
// names/attribute values/texts survives a serialize→parse→serialize cycle.
func TestQuickRoundTrip(t *testing.T) {
	f := func(names []string, attrVals []string, texts []string) bool {
		root := NewElement("root")
		cur := root
		for i, n := range names {
			child := NewElement(genName(n))
			if i < len(attrVals) {
				child.SetAttr("a", genText(attrVals[i]))
			}
			// An empty text node serializes as <x></x> but reparses to
			// the equivalent <x/>, so only append non-empty runs.
			if i < len(texts) {
				if txt := genText(texts[i]); txt != "" {
					child.AppendText(txt)
				}
			}
			cur.AppendChild(child)
			if i%2 == 0 {
				cur = child // grow depth on alternate steps
			}
		}
		doc := NewDocument(root)
		out := doc.String()
		re, err := ParseString(out)
		if err != nil {
			t.Logf("reparse error: %v for %q", err, out)
			return false
		}
		return re.String() == out
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickCloneEquivalence property-tests that Clone yields an identical
// serialization and a fully detached tree.
func TestQuickCloneEquivalence(t *testing.T) {
	f := func(names []string, texts []string) bool {
		root := NewElement("r")
		for i, n := range names {
			c := root.AddElement(genName(n))
			if i < len(texts) {
				c.AppendText(genText(texts[i]))
			}
		}
		doc := NewDocument(root)
		clone := doc.Clone()
		if clone.String() != doc.String() {
			return false
		}
		clone.Root().SetAttr("mut", "1")
		return doc.Root().AttrValue("mut") == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestReadBackMatchesWriter: ReadBack gives what parsing the writer's
// output gives, in attribute values and in text, for valid strings and
// for runs of invalid UTF-8 between them.
func TestReadBackMatchesWriter(t *testing.T) {
	for _, s := range []string{
		"", "plain", "naïve 北斎", "a\xffb", "\xff\xfe", "\xe2\x82", "x\xed\xa0\x80y", "t\t\r\nu", "\xc3\xa9\xc3",
	} {
		root := NewElement("a")
		root.SetAttr("v", s)
		root.AppendText(s)
		doc, err := ParseString(NewDocument(root).String())
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		want := ReadBack(s)
		if got := doc.Root().AttrValue("v"); got != want {
			t.Errorf("%q: attribute reads back %q, ReadBack %q", s, got, want)
		}
		if got := doc.Root().StringValue(); got != want {
			t.Errorf("%q: text reads back %q, ReadBack %q", s, got, want)
		}
	}
}

// attrValueLenCases hold every byte the attribute escaper rewrites,
// invalid UTF-8 alone, between valid sequences and cut short, and long
// runs of each.
var attrValueLenCases = []string{
	"", "plain", `&<>"`, "\t\n\r", "naïve 北斎", "\xff", "a\xffb", "\xff\xfe", "\xe2\x82", "cut\xe2\x82",
	"x\xed\xa0\x80y", "\xc3\xa9\xc3", "�", "\xf4\x90\x80\x80", `<Les "Demoiselles">`,
	strings.Repeat("a", 4096), strings.Repeat("&", 4096), strings.Repeat("\xff", 4096),
	strings.Repeat("é\"\t", 1365), strings.Repeat("\xe2\x82", 2048),
}

// TestAttrValueLen: AttrValueLen counts exactly the bytes
// AppendAttrValue appends.
func TestAttrValueLen(t *testing.T) {
	cases := slices.Clone(attrValueLenCases)
	for c := 0; c < 256; c++ {
		cases = append(cases, string(rune(c)), string([]byte{byte(c)}), "a"+string([]byte{byte(c)})+"b")
	}
	for _, s := range cases {
		if got, want := AttrValueLen(s), len(AppendAttrValue(nil, s)); got != want {
			t.Errorf("AttrValueLen(%q) = %d, AppendAttrValue appends %d", s, got, want)
		}
	}
}

// FuzzAttrValueLen: AttrValueLen agrees with AppendAttrValue on any
// string.
func FuzzAttrValueLen(f *testing.F) {
	for _, s := range attrValueLenCases {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := AttrValueLen(s), len(AppendAttrValue(nil, s)); got != want {
			t.Errorf("AttrValueLen(%q) = %d, AppendAttrValue appends %d", s, got, want)
		}
	})
}
