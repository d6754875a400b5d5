package xmldom

// The reference serializer: the writer this package shipped before the
// append-only one in serialize.go, kept verbatim (identifiers renamed)
// as the slow twin FuzzSerializeMatchesReference and the museum-wide
// comparison check the fast writer against byte for byte. It builds a
// fresh scope with two maps per element and a string per escaped run,
// which is exactly what serialize.go no longer does; do not optimize it.

import (
	"fmt"
	"io"
	"strings"
)

// refScope tracks in-scope prefix bindings during serialization.
type refScope struct {
	parent       *refScope
	prefixToURI  map[string]string
	uriToPrefix  map[string]string
	defaultSpace string
	hasDefault   bool
}

func newRefScope(parent *refScope) *refScope {
	return &refScope{
		parent:      parent,
		prefixToURI: map[string]string{},
		uriToPrefix: map[string]string{},
	}
}

func (s *refScope) lookupPrefix(uri string) (string, bool) {
	for sc := s; sc != nil; sc = sc.parent {
		if p, ok := sc.uriToPrefix[uri]; ok {
			// A nearer scope may have rebound the prefix; confirm.
			if u, ok2 := s.lookupURI(p); ok2 && u == uri {
				return p, true
			}
		}
	}
	return "", false
}

func (s *refScope) lookupURI(prefix string) (string, bool) {
	for sc := s; sc != nil; sc = sc.parent {
		if u, ok := sc.prefixToURI[prefix]; ok {
			return u, true
		}
	}
	return "", false
}

func (s *refScope) defaultNS() string {
	for sc := s; sc != nil; sc = sc.parent {
		if sc.hasDefault {
			return sc.defaultSpace
		}
	}
	return ""
}

func (s *refScope) bind(prefix, uri string) {
	if prefix == "" {
		s.hasDefault = true
		s.defaultSpace = uri
		return
	}
	s.prefixToURI[prefix] = uri
	s.uriToPrefix[uri] = prefix
}

type refSerializer struct {
	w       io.Writer
	opts    WriteOptions
	err     error
	genSeq  int
	written int64
}

func (s *refSerializer) writeString(str string) {
	if s.err != nil {
		return
	}
	n, err := io.WriteString(s.w, str)
	s.written += int64(n)
	if err != nil {
		s.err = err
	}
}

// refWrite serializes the document to w.
func refWrite(d *Document, w io.Writer, opts WriteOptions) error {
	s := &refSerializer{w: w, opts: opts}
	if opts.Declaration {
		s.writeString(`<?xml version="1.0" encoding="UTF-8"?>`)
		if opts.Indent != "" {
			s.writeString("\n")
		}
	}
	scope := newRefScope(nil)
	scope.bind("xml", XMLNamespace)
	for i, c := range d.children {
		if opts.Indent != "" && i > 0 {
			s.writeString("\n")
		}
		s.writeNode(c, scope, 0)
	}
	if opts.Indent != "" {
		s.writeString("\n")
	}
	return s.err
}

// refString serializes the document compactly (no declaration, no indent).
func refString(d *Document) string {
	var sb strings.Builder
	_ = refWrite(d, &sb, WriteOptions{})
	return sb.String()
}

// refIndentedString serializes the document pretty-printed with two-space
// indentation and an XML declaration.
func refIndentedString(d *Document) string {
	var sb strings.Builder
	_ = refWrite(d, &sb, WriteOptions{Indent: "  ", Declaration: true})
	return sb.String()
}

// refOuterXML serializes a single element subtree compactly.
func refOuterXML(e *Element) string {
	var sb strings.Builder
	s := &refSerializer{w: &sb, opts: WriteOptions{}}
	scope := newRefScope(nil)
	scope.bind("xml", XMLNamespace)
	s.writeNode(e, scope, 0)
	return sb.String()
}

// refContentShape reports whether the element has element children and whether
// it has non-whitespace text children (mixed content).
func refContentShape(e *Element) (hasElem, hasText bool) {
	for _, c := range e.children {
		switch n := c.(type) {
		case *Element:
			hasElem = true
		case *Text:
			if strings.TrimSpace(n.Data) != "" {
				hasText = true
			}
		}
	}
	return
}

func (s *refSerializer) writeNode(n Node, scope *refScope, depth int) {
	switch v := n.(type) {
	case *Element:
		s.writeElement(v, scope, depth)
	case *Text:
		if v.CData {
			s.writeString("<![CDATA[")
			s.writeString(strings.ReplaceAll(v.Data, "]]>", "]]]]><![CDATA[>"))
			s.writeString("]]>")
		} else {
			s.writeString(refEscapeText(v.Data))
		}
	case *Comment:
		s.writeString("<!--")
		s.writeString(v.Data)
		s.writeString("-->")
	case *ProcInst:
		s.writeString("<?")
		s.writeString(v.Target)
		if v.Data != "" {
			s.writeString(" ")
			s.writeString(v.Data)
		}
		s.writeString("?>")
	}
}

func (s *refSerializer) writeElement(e *Element, parent *refScope, depth int) {
	scope := newRefScope(parent)

	// Collect declarations already present as attributes.
	type attrOut struct{ name, value string }
	var extraDecls []attrOut
	var plainAttrs []*Attr
	for _, a := range e.attrs {
		switch {
		case a.Name.Space == "" && a.Name.Local == "xmlns":
			scope.bind("", a.Value)
			extraDecls = append(extraDecls, attrOut{"xmlns", a.Value})
		case a.Name.Space == "xmlns":
			scope.bind(a.Name.Local, a.Value)
			extraDecls = append(extraDecls, attrOut{"xmlns:" + a.Name.Local, a.Value})
		default:
			plainAttrs = append(plainAttrs, a)
		}
	}

	// Resolve the element's own name.
	var tag string
	switch {
	case e.Name.Space == "":
		if scope.defaultNS() != "" {
			scope.bind("", "")
			extraDecls = append(extraDecls, attrOut{"xmlns", ""})
		}
		tag = e.Name.Local
	case scope.defaultNS() == e.Name.Space:
		tag = e.Name.Local
	default:
		if p, ok := scope.lookupPrefix(e.Name.Space); ok && p != "" {
			tag = p + ":" + e.Name.Local
		} else {
			// No prefix in scope: declare the element's namespace as the
			// default so descendants in the same namespace stay clean.
			scope.bind("", e.Name.Space)
			extraDecls = append(extraDecls, attrOut{"xmlns", e.Name.Space})
			tag = e.Name.Local
		}
	}

	// Resolve attribute names, synthesizing prefixes where needed.
	var attrsOut []attrOut
	for _, a := range plainAttrs {
		switch {
		case a.Name.Space == "":
			attrsOut = append(attrsOut, attrOut{a.Name.Local, a.Value})
		case a.Name.Space == XMLNamespace || a.Name.Space == "xml":
			attrsOut = append(attrsOut, attrOut{"xml:" + a.Name.Local, a.Value})
		default:
			p, ok := scope.lookupPrefix(a.Name.Space)
			if !ok || p == "" {
				p = s.freshPrefix(scope)
				scope.bind(p, a.Name.Space)
				extraDecls = append(extraDecls, attrOut{"xmlns:" + p, a.Name.Space})
			}
			attrsOut = append(attrsOut, attrOut{p + ":" + a.Name.Local, a.Value})
		}
	}

	s.writeString("<")
	s.writeString(tag)
	for _, d := range extraDecls {
		s.writeString(" ")
		s.writeString(d.name)
		s.writeString(`="`)
		s.writeString(refEscapeAttr(d.value))
		s.writeString(`"`)
	}
	for _, a := range attrsOut {
		s.writeString(" ")
		s.writeString(a.name)
		s.writeString(`="`)
		s.writeString(refEscapeAttr(a.value))
		s.writeString(`"`)
	}

	if len(e.children) == 0 {
		s.writeString("/>")
		return
	}
	s.writeString(">")

	hasElem, hasText := refContentShape(e)
	pretty := s.opts.Indent != "" && hasElem && !hasText
	for _, c := range e.children {
		if pretty {
			if t, ok := c.(*Text); ok && strings.TrimSpace(t.Data) == "" {
				continue // replaced by generated indentation
			}
			s.writeString("\n")
			s.writeString(strings.Repeat(s.opts.Indent, depth+1))
		}
		s.writeNode(c, scope, depth+1)
	}
	if pretty {
		s.writeString("\n")
		s.writeString(strings.Repeat(s.opts.Indent, depth))
	}
	s.writeString("</")
	s.writeString(tag)
	s.writeString(">")
}

func (s *refSerializer) freshPrefix(scope *refScope) string {
	for {
		s.genSeq++
		p := fmt.Sprintf("ns%d", s.genSeq)
		if _, taken := scope.lookupURI(p); !taken {
			return p
		}
	}
}

func refEscapeText(s string) string {
	var sb strings.Builder
	for _, r := range s {
		switch r {
		case '&':
			sb.WriteString("&amp;")
		case '<':
			sb.WriteString("&lt;")
		case '>':
			sb.WriteString("&gt;")
		case '\r':
			sb.WriteString("&#xD;")
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

func refEscapeAttr(s string) string {
	var sb strings.Builder
	for _, r := range s {
		switch r {
		case '&':
			sb.WriteString("&amp;")
		case '<':
			sb.WriteString("&lt;")
		case '>':
			sb.WriteString("&gt;")
		case '"':
			sb.WriteString("&quot;")
		case '\n':
			sb.WriteString("&#xA;")
		case '\r':
			sb.WriteString("&#xD;")
		case '\t':
			sb.WriteString("&#x9;")
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}
