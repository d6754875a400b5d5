package presentation

import (
	"sort"
	"strings"

	"repro/internal/xmldom"
)

// voidElements are HTML elements with no closing tag.
var voidElements = map[string]bool{
	"area": true, "base": true, "br": true, "col": true, "embed": true,
	"hr": true, "img": true, "input": true, "link": true, "meta": true,
	"source": true, "track": true, "wbr": true,
}

// HTMLOptions control HTML serialization.
type HTMLOptions struct {
	// Doctype prepends <!DOCTYPE html>.
	Doctype bool
	// Indent pretty-prints element-only content with the given string
	// per level.
	Indent string
}

// WriteHTML serializes an element tree as HTML: void elements are
// self-delimiting, text and attributes are escaped, and the XML-isms
// (self-closing tags, CDATA) are avoided so the output matches what the
// paper's Figures 3–4 show as hand-written pages.
func WriteHTML(root *xmldom.Element, opts HTMLOptions) string {
	var sb strings.Builder
	if opts.Doctype {
		sb.WriteString("<!DOCTYPE html>\n")
	}
	writeHTMLElement(&sb, root, opts, 0)
	if opts.Indent != "" {
		sb.WriteString("\n")
	}
	return sb.String()
}

func writeHTMLElement(sb *strings.Builder, e *xmldom.Element, opts HTMLOptions, depth int) {
	name := strings.ToLower(e.Name.Local)
	sb.WriteString("<")
	sb.WriteString(name)
	// Deterministic attribute order: declaration order (already stable),
	// but sort duplicates-by-name never occur, so this is pure pass-through.
	for _, a := range e.Attrs() {
		if a.Name.Space == "xmlns" || (a.Name.Space == "" && a.Name.Local == "xmlns") {
			continue
		}
		sb.WriteString(" ")
		sb.WriteString(a.Name.Local)
		sb.WriteString(`="`)
		_, _ = htmlAttrEscaper.WriteString(sb, a.Value)
		sb.WriteString(`"`)
	}
	sb.WriteString(">")
	if voidElements[name] {
		return
	}

	pretty := opts.Indent != "" && htmlElementOnly(e)
	for _, c := range e.Children() {
		switch n := c.(type) {
		case *xmldom.Element:
			if pretty {
				sb.WriteString("\n")
				sb.WriteString(strings.Repeat(opts.Indent, depth+1))
			}
			writeHTMLElement(sb, n, opts, depth+1)
		case *xmldom.Text:
			if pretty && isAllSpace(n.Data) {
				continue
			}
			_, _ = htmlTextEscaper.WriteString(sb, n.Data)
		case *xmldom.Comment:
			if pretty {
				sb.WriteString("\n")
				sb.WriteString(strings.Repeat(opts.Indent, depth+1))
			}
			sb.WriteString("<!--")
			sb.WriteString(n.Data)
			sb.WriteString("-->")
		}
	}
	if pretty {
		sb.WriteString("\n")
		sb.WriteString(strings.Repeat(opts.Indent, depth))
	}
	sb.WriteString("</")
	sb.WriteString(name)
	sb.WriteString(">")
}

func htmlElementOnly(e *xmldom.Element) bool {
	hasElem := false
	for _, c := range e.Children() {
		switch n := c.(type) {
		case *xmldom.Element, *xmldom.Comment:
			hasElem = true
			_ = n
		case *xmldom.Text:
			if !isAllSpace(n.Data) {
				return false
			}
		}
	}
	return hasElem
}

// The HTML escapers, built once: a strings.Replacer compiles its table
// on first use and is safe for concurrent use.
var (
	htmlTextEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	htmlAttrEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
)

// CountLines reports the number of lines in a rendered page; the change
// cost analyzer uses it for page-size statistics.
func CountLines(s string) int {
	if s == "" {
		return 0
	}
	return strings.Count(s, "\n") + 1
}

// SortedKeys returns a map's keys sorted; shared by page-set reporting.
func SortedKeys[M ~map[string]V, V any](m M) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
