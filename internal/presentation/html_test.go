package presentation

import (
	"testing"

	"repro/internal/xmldom"
)

// TestAppendHTMLExact: AppendHTML extends the buffer it is given with
// exactly WriteHTML's bytes — escaping &, < and > everywhere and the
// double quote only in attribute values, passing every other byte
// through — and leaves the buffer's prefix as it was.
func TestAppendHTMLExact(t *testing.T) {
	root := xmldom.NewElement("DIV")
	root.SetAttr("title", `a"b&c<d>e'f`)
	p := root.AddElement("p")
	p.AppendText("text \"q\" & <x> 'y' \xff")
	root.AddElement("br")
	root.AppendChild(&xmldom.Comment{Data: " note "})
	const want = "<!DOCTYPE html>\n" +
		"<div title=\"a&quot;b&amp;c&lt;d&gt;e'f\">\n" +
		"  <p>text \"q\" &amp; &lt;x&gt; 'y' \xff</p>\n" +
		"  <br>\n" +
		"  <!-- note -->\n" +
		"</div>\n"
	opts := HTMLOptions{Doctype: true, Indent: "  "}
	if got := WriteHTML(root, opts); got != want {
		t.Fatalf("WriteHTML =\n%q\nwant\n%q", got, want)
	}
	buf := AppendHTML([]byte("prefix:"), root, opts)
	if got := string(buf); got != "prefix:"+want {
		t.Fatalf("AppendHTML onto a prefix =\n%q", got)
	}
}
