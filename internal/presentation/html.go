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
	return string(AppendHTML(nil, root, opts))
}

// AppendHTML appends WriteHTML's serialization of root to dst and
// returns the extended buffer, so a caller that reuses one buffer
// serializes without allocating.
func AppendHTML(dst []byte, root *xmldom.Element, opts HTMLOptions) []byte {
	if opts.Doctype {
		dst = append(dst, "<!DOCTYPE html>\n"...)
	}
	dst = appendHTMLElement(dst, root, opts, 0)
	if opts.Indent != "" {
		dst = append(dst, '\n')
	}
	return dst
}

func appendHTMLElement(dst []byte, e *xmldom.Element, opts HTMLOptions, depth int) []byte {
	name := strings.ToLower(e.Name.Local)
	dst = append(dst, '<')
	dst = append(dst, name...)
	// Attributes keep their declaration order; namespace declarations
	// are XML-isms and are dropped.
	for _, a := range e.Attrs() {
		if a.Name.Space == "xmlns" || (a.Name.Space == "" && a.Name.Local == "xmlns") {
			continue
		}
		dst = append(dst, ' ')
		dst = append(dst, a.Name.Local...)
		dst = append(dst, `="`...)
		dst = appendHTMLEscaped(dst, a.Value, true)
		dst = append(dst, '"')
	}
	dst = append(dst, '>')
	if voidElements[name] {
		return dst
	}

	pretty := opts.Indent != "" && htmlElementOnly(e)
	for _, c := range e.Children() {
		switch n := c.(type) {
		case *xmldom.Element:
			if pretty {
				dst = appendIndent(dst, opts.Indent, depth+1)
			}
			dst = appendHTMLElement(dst, n, opts, depth+1)
		case *xmldom.Text:
			if pretty && isAllSpace(n.Data) {
				continue
			}
			dst = appendHTMLEscaped(dst, n.Data, false)
		case *xmldom.Comment:
			if pretty {
				dst = appendIndent(dst, opts.Indent, depth+1)
			}
			dst = append(dst, "<!--"...)
			dst = append(dst, n.Data...)
			dst = append(dst, "-->"...)
		}
	}
	if pretty {
		dst = appendIndent(dst, opts.Indent, depth)
	}
	dst = append(dst, "</"...)
	dst = append(dst, name...)
	return append(dst, '>')
}

// appendIndent starts a new line indented depth levels.
func appendIndent(dst []byte, indent string, depth int) []byte {
	dst = append(dst, '\n')
	for i := 0; i < depth; i++ {
		dst = append(dst, indent...)
	}
	return dst
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

// appendHTMLEscaped appends s with &, < and > escaped — and, in an
// attribute value, the double quote — copying runs of bytes that need
// no escape in one append. Other bytes pass through unchanged.
func appendHTMLEscaped(dst []byte, s string, attr bool) []byte {
	run := 0
	for i := 0; i < len(s); i++ {
		var esc string
		switch s[i] {
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '"':
			if !attr {
				continue
			}
			esc = "&quot;"
		default:
			continue
		}
		dst = append(dst, s[run:i]...)
		dst = append(dst, esc...)
		run = i + 1
	}
	return append(dst, s[run:]...)
}

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
