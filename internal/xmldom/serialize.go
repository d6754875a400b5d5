package xmldom

import (
	"io"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// WriteOptions control serialization.
type WriteOptions struct {
	// Indent, when non-empty, pretty-prints the tree using the string as
	// one indentation level. Mixed content (elements with text siblings)
	// is never re-indented, so data round-trips.
	Indent string
	// Declaration emits an <?xml version="1.0" encoding="UTF-8"?> header.
	Declaration bool
}

// nsScope holds the prefix bindings one element adds to those in scope
// at its parent. An element that binds nothing shares its parent's
// scope, so only declaring elements allocate one.
type nsScope struct {
	parent *nsScope
	// bindings are the element's prefixed bindings in binding order; a
	// later binding of the same prefix or URI shadows an earlier one.
	bindings     []nsBinding
	defaultSpace string
	hasDefault   bool
}

type nsBinding struct{ prefix, uri string }

// xmlScope is the root of every scope chain: the xml prefix is bound
// implicitly. Elements bind into scopes of their own, never into it.
var xmlScope = &nsScope{bindings: []nsBinding{{"xml", XMLNamespace}}}

// lookupPrefix returns the prefix bound to uri in s. Each scope offers
// its latest binding of uri, which a nearer scope may have rebound to
// another URI; then the search moves outward.
func (s *nsScope) lookupPrefix(uri string) (string, bool) {
	for sc := s; sc != nil; sc = sc.parent {
		for i := len(sc.bindings) - 1; i >= 0; i-- {
			if b := sc.bindings[i]; b.uri == uri {
				if u, ok := s.lookupURI(b.prefix); ok && u == uri {
					return b.prefix, true
				}
				break
			}
		}
	}
	return "", false
}

func (s *nsScope) lookupURI(prefix string) (string, bool) {
	for sc := s; sc != nil; sc = sc.parent {
		for i := len(sc.bindings) - 1; i >= 0; i-- {
			if sc.bindings[i].prefix == prefix {
				return sc.bindings[i].uri, true
			}
		}
	}
	return "", false
}

func (s *nsScope) defaultNS() string {
	for sc := s; sc != nil; sc = sc.parent {
		if sc.hasDefault {
			return sc.defaultSpace
		}
	}
	return ""
}

func (s *nsScope) bind(prefix, uri string) {
	if prefix == "" {
		s.hasDefault = true
		s.defaultSpace = uri
		return
	}
	s.bindings = append(s.bindings, nsBinding{prefix, uri})
}

// flushAt is the chunk size Write hands to its io.Writer.
const flushAt = 64 << 10

// serializer appends a tree's XML to buf. With w set, it flushes buf to
// w whenever a chunk fills, and stops writing after the first error.
type serializer struct {
	buf    []byte
	w      io.Writer
	err    error
	opts   WriteOptions
	genSeq int
	// indent is a newline followed by the indentation of the deepest
	// level seen so far; indentation at depth d is a prefix of it.
	indent []byte
	// split makes the root element record in bounds where its content
	// begins and where each of its child elements ends.
	split  bool
	bounds []int
}

// indented is the form IndentedString and AppendIndented write.
var indented = WriteOptions{Indent: "  ", Declaration: true}

// AppendIndented appends the document pretty-printed with two-space
// indentation and an XML declaration to dst, exactly the bytes
// IndentedString returns, and returns the extended slice.
func (d *Document) AppendIndented(dst []byte) []byte {
	s := serializer{buf: dst, opts: indented}
	s.document(d)
	return s.buf
}

// AppendIndentedSplit appends what AppendIndented appends, and appends
// to bounds the offsets, into the returned slice, at which the root
// element's content splits at its child elements: first the offset just
// past the root's start tag, then the offset just past each child
// element. Child element k, with what is written between it and the
// child element before it (in indented output, a line break and
// indentation), lies between the k-th and the k+1-th of those offsets;
// the bytes after the last one close the root. A root with no children
// is written self-closing and adds no offsets.
func (d *Document) AppendIndentedSplit(dst []byte, bounds []int) ([]byte, []int) {
	s := serializer{buf: dst, opts: indented, split: true, bounds: bounds}
	s.document(d)
	return s.buf, s.bounds
}

// Write serializes the document to w, in chunks of about 64 KiB.
func (d *Document) Write(w io.Writer, opts WriteOptions) error {
	s := serializer{w: w, opts: opts}
	s.document(d)
	s.flush()
	return s.err
}

// String serializes the document compactly (no declaration, no indent).
func (d *Document) String() string { return serializeString(d, nil, WriteOptions{}) }

// IndentedString serializes the document pretty-printed with two-space
// indentation and an XML declaration.
func (d *Document) IndentedString() string { return serializeString(d, nil, indented) }

// OuterXML serializes a single element subtree compactly.
func OuterXML(e *Element) string { return serializeString(nil, e, WriteOptions{}) }

// bufPool recycles the buffers the string forms are serialized into, so
// a large document grows a buffer once rather than on every call.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// serializeString serializes d, or e when d is nil, into a pooled buffer
// and returns an exact-size copy.
func serializeString(d *Document, e *Element, opts WriteOptions) string {
	bp := bufPool.Get().(*[]byte)
	s := serializer{buf: (*bp)[:0], opts: opts}
	if d != nil {
		s.document(d)
	} else {
		s.element(e, xmlScope, 0)
	}
	out := string(s.buf)
	*bp = s.buf
	bufPool.Put(bp)
	return out
}

func (s *serializer) document(d *Document) {
	if s.opts.Declaration {
		s.buf = append(s.buf, `<?xml version="1.0" encoding="UTF-8"?>`...)
		if s.opts.Indent != "" {
			s.buf = append(s.buf, '\n')
		}
	}
	for i, c := range d.children {
		if s.opts.Indent != "" && i > 0 {
			s.buf = append(s.buf, '\n')
		}
		s.node(c, xmlScope, 0)
	}
	if s.opts.Indent != "" {
		s.buf = append(s.buf, '\n')
	}
}

// flush hands the buffered bytes to w.
func (s *serializer) flush() {
	if s.err == nil && len(s.buf) > 0 {
		_, s.err = s.w.Write(s.buf)
	}
	s.buf = s.buf[:0]
}

// newline appends a line break and the indentation of depth.
func (s *serializer) newline(depth int) {
	if len(s.indent) == 0 {
		s.indent = append(s.indent, '\n')
	}
	n := 1 + depth*len(s.opts.Indent)
	for len(s.indent) < n {
		s.indent = append(s.indent, s.opts.Indent...)
	}
	s.buf = append(s.buf, s.indent[:n]...)
}

// contentShape reports whether the element has element children and whether
// it has non-whitespace text children (mixed content).
func contentShape(e *Element) (hasElem, hasText bool) {
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

func (s *serializer) node(n Node, scope *nsScope, depth int) {
	switch v := n.(type) {
	case *Element:
		s.element(v, scope, depth)
	case *Text:
		if v.CData {
			s.buf = append(s.buf, "<![CDATA["...)
			s.buf = append(s.buf, strings.ReplaceAll(v.Data, "]]>", "]]]]><![CDATA[>")...)
			s.buf = append(s.buf, "]]>"...)
		} else {
			s.buf = appendEscaped(s.buf, v.Data, false)
		}
	case *Comment:
		s.buf = append(s.buf, "<!--"...)
		s.buf = append(s.buf, v.Data...)
		s.buf = append(s.buf, "-->"...)
	case *ProcInst:
		s.buf = append(s.buf, "<?"...)
		s.buf = append(s.buf, v.Target...)
		if v.Data != "" {
			s.buf = append(s.buf, ' ')
			s.buf = append(s.buf, v.Data...)
		}
		s.buf = append(s.buf, "?>"...)
	}
	if s.w != nil && len(s.buf) >= flushAt {
		s.flush()
	}
}

// isNSDecl reports whether a is an xmlns or xmlns:prefix declaration.
func isNSDecl(a *Attr) bool {
	return a.Name.Space == "xmlns" || (a.Name.Space == "" && a.Name.Local == "xmlns")
}

func (s *serializer) element(e *Element, parent *nsScope, depth int) {
	scope := parent
	own := func() {
		if scope == parent {
			scope = &nsScope{parent: parent}
		}
	}

	// Declarations already present as attributes bind first.
	for _, a := range e.attrs {
		if isNSDecl(a) {
			own()
			if a.Name.Space == "" {
				scope.bind("", a.Value)
			} else {
				scope.bind(a.Name.Local, a.Value)
			}
		}
	}

	// Resolve the element's own name.
	var prefix string
	declDefault := false
	switch {
	case e.Name.Space == "":
		if scope.defaultNS() != "" {
			own()
			scope.bind("", "")
			declDefault = true
		}
	case scope.defaultNS() == e.Name.Space:
	default:
		if p, ok := scope.lookupPrefix(e.Name.Space); ok {
			prefix = p
		} else {
			// No prefix in scope: declare the element's namespace as the
			// default so descendants in the same namespace stay clean.
			own()
			scope.bind("", e.Name.Space)
			declDefault = true
		}
	}

	s.buf = append(s.buf, '<')
	s.buf = appendName(s.buf, prefix, e.Name.Local)
	for _, a := range e.attrs {
		if isNSDecl(a) {
			s.attr(a.Name.Space, a.Name.Local, a.Value)
		}
	}
	if declDefault {
		s.attr("", "xmlns", e.Name.Space)
	}
	// Namespaced attributes with no prefix in scope get a synthesized
	// one, declared before any attribute is written.
	for _, a := range e.attrs {
		if !isNSDecl(a) && a.Name.Space != "" && !isXMLSpace(a.Name.Space) {
			if _, ok := scope.lookupPrefix(a.Name.Space); !ok {
				own()
				p := s.freshPrefix(scope)
				scope.bind(p, a.Name.Space)
				s.attr("xmlns", p, a.Name.Space)
			}
		}
	}
	for _, a := range e.attrs {
		switch {
		case isNSDecl(a):
		case a.Name.Space == "":
			s.attr("", a.Name.Local, a.Value)
		case isXMLSpace(a.Name.Space):
			s.attr("xml", a.Name.Local, a.Value)
		default:
			p, _ := scope.lookupPrefix(a.Name.Space)
			s.attr(p, a.Name.Local, a.Value)
		}
	}

	if len(e.children) == 0 {
		s.buf = append(s.buf, "/>"...)
		return
	}
	s.buf = append(s.buf, '>')
	split := s.split && depth == 0
	if split {
		s.bounds = append(s.bounds, len(s.buf))
	}

	hasElem, hasText := contentShape(e)
	pretty := s.opts.Indent != "" && hasElem && !hasText
	for _, c := range e.children {
		if pretty {
			if t, ok := c.(*Text); ok && strings.TrimSpace(t.Data) == "" {
				continue // replaced by generated indentation
			}
			s.newline(depth + 1)
		}
		s.node(c, scope, depth+1)
		if split {
			if _, ok := c.(*Element); ok {
				s.bounds = append(s.bounds, len(s.buf))
			}
		}
	}
	if pretty {
		s.newline(depth)
	}
	s.buf = append(s.buf, "</"...)
	s.buf = appendName(s.buf, prefix, e.Name.Local)
	s.buf = append(s.buf, '>')
}

func isXMLSpace(space string) bool { return space == XMLNamespace || space == "xml" }

// attr appends ` prefix:local="value"`, escaping the value.
func (s *serializer) attr(prefix, local, value string) {
	s.buf = append(s.buf, ' ')
	s.buf = appendName(s.buf, prefix, local)
	s.buf = append(s.buf, `="`...)
	s.buf = AppendAttrValue(s.buf, value)
	s.buf = append(s.buf, '"')
}

// AppendAttrValue appends str escaped as the serializer writes every
// attribute value, and returns the extended slice: &, <, >, " and the
// whitespace characters tab, line feed and carriage return become
// references, and each byte of invalid UTF-8 becomes U+FFFD. Writers
// that produce markup without a tree escape through it, so their bytes
// and the serializer's cannot drift apart.
func AppendAttrValue(dst []byte, str string) []byte { return appendEscaped(dst, str, true) }

// AppendCharData appends str escaped as the serializer writes a text
// node, and returns the extended slice: &, <, > and carriage return
// become references, and each byte of invalid UTF-8 becomes U+FFFD.
// Like AppendAttrValue, it lets a writer that produces markup without a
// tree write the serializer's bytes.
func AppendCharData(dst []byte, str string) []byte { return appendEscaped(dst, str, false) }

// AttrValueLen returns how many bytes AppendAttrValue appends for str,
// without writing them: it walks the bytes appendEscaped looks at and
// counts each escape it would write.
func AttrValueLen(str string) int {
	n := len(str)
	for i := 0; i < len(str); {
		c := str[i]
		if !escapedAttr[c] {
			i++
			continue
		}
		switch c {
		case '&', '\r', '\n', '\t': // &amp; &#xD; &#xA; &#x9;
			n += 4
		case '<', '>': // &lt; &gt;
			n += 3
		case '"': // &quot;
			n += 5
		default:
			r, size := utf8.DecodeRuneInString(str[i:])
			if r != utf8.RuneError || size != 1 {
				i += size
				continue
			}
			n += len("\uFFFD") - 1
		}
		i++
	}
	return n
}

func appendName(dst []byte, prefix, local string) []byte {
	if prefix != "" {
		dst = append(dst, prefix...)
		dst = append(dst, ':')
	}
	return append(dst, local...)
}

func (s *serializer) freshPrefix(scope *nsScope) string {
	for {
		s.genSeq++
		p := "ns" + strconv.Itoa(s.genSeq)
		if _, taken := scope.lookupURI(p); !taken {
			return p
		}
	}
}

// escapedText and escapedAttr mark the bytes appendEscaped must look at
// in text content and in attribute values: the characters it escapes,
// and every byte of a multi-byte UTF-8 sequence, which it validates.
var escapedText, escapedAttr = escapeSet("&<>\r"), escapeSet("&<>\r\"\n\t")

func escapeSet(chars string) (set [256]bool) {
	for c := utf8.RuneSelf; c < len(set); c++ {
		set[c] = true
	}
	for i := 0; i < len(chars); i++ {
		set[chars[i]] = true
	}
	return set
}

// ReadBack returns str as the writer's output of it reads back: the
// same string, but for each byte of invalid UTF-8, which the writer
// writes as U+FFFD.
func ReadBack(str string) string {
	if utf8.ValidString(str) {
		return str
	}
	b := make([]byte, 0, len(str)+8)
	for i := 0; i < len(str); {
		r, n := utf8.DecodeRuneInString(str[i:])
		if r == utf8.RuneError && n == 1 {
			b = append(b, "\uFFFD"...)
		} else {
			b = append(b, str[i:i+n]...)
		}
		i += n
	}
	return string(b)
}

// appendEscaped appends str escaped as text content or, with attr, as
// an attribute value, copying runs of bytes that need no escape in one
// append. Each byte of invalid UTF-8 becomes U+FFFD.
func appendEscaped(dst []byte, str string, attr bool) []byte {
	set := &escapedText
	if attr {
		set = &escapedAttr
	}
	run := 0
	for i := 0; i < len(str); {
		c := str[i]
		if !set[c] {
			i++
			continue
		}
		var esc string
		switch c {
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '\r':
			esc = "&#xD;"
		case '"':
			esc = "&quot;"
		case '\n':
			esc = "&#xA;"
		case '\t':
			esc = "&#x9;"
		default:
			r, n := utf8.DecodeRuneInString(str[i:])
			if r != utf8.RuneError || n != 1 {
				i += n
				continue
			}
			esc = "\uFFFD"
		}
		dst = append(dst, str[run:i]...)
		dst = append(dst, esc...)
		i++
		run = i
	}
	return append(dst, str[run:]...)
}
