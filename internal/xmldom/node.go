package xmldom

import (
	"strings"
)

// NodeType identifies the concrete kind of a Node.
type NodeType int

// Node kinds, mirroring the XPath 1.0 data model.
const (
	DocumentNode NodeType = iota + 1
	ElementNode
	TextNode
	CommentNode
	ProcInstNode
	AttributeNode
)

// String returns a human-readable name for the node type.
func (t NodeType) String() string {
	switch t {
	case DocumentNode:
		return "document"
	case ElementNode:
		return "element"
	case TextNode:
		return "text"
	case CommentNode:
		return "comment"
	case ProcInstNode:
		return "processing-instruction"
	case AttributeNode:
		return "attribute"
	default:
		return "unknown"
	}
}

// Name is an expanded XML name: a namespace URI plus a local part.
// A zero Space means the name is in no namespace.
type Name struct {
	Space string // namespace URI, not prefix
	Local string
}

// String renders the name in Clark notation ({uri}local) when namespaced.
func (n Name) String() string {
	if n.Space == "" {
		return n.Local
	}
	return "{" + n.Space + "}" + n.Local
}

// Node is implemented by every member of a document tree.
type Node interface {
	// Type reports the concrete kind of the node.
	Type() NodeType
	// ParentNode returns the node's parent, or nil for a Document or a
	// detached node. An attribute's parent is its owning element.
	ParentNode() Node
	// StringValue returns the XPath 1.0 string-value of the node.
	StringValue() string
	// Document returns the owning document, or nil for detached trees.
	Document() *Document
}

// Document is the root of a parsed tree. Its children are the top-level
// comments and processing instructions plus exactly one root element.
type Document struct {
	// BaseURI records where the document was loaded from, when known.
	// XLink href resolution uses it to absolutize relative references.
	BaseURI string

	children []Node
}

// Type implements Node.
func (d *Document) Type() NodeType { return DocumentNode }

// ParentNode implements Node; a document has no parent.
func (d *Document) ParentNode() Node { return nil }

// Document implements Node.
func (d *Document) Document() *Document { return d }

// StringValue returns the string-value of the root element, per XPath.
func (d *Document) StringValue() string {
	if r := d.Root(); r != nil {
		return r.StringValue()
	}
	return ""
}

// Root returns the document element, or nil if the document is empty.
func (d *Document) Root() *Element {
	for _, c := range d.children {
		if e, ok := c.(*Element); ok {
			return e
		}
	}
	return nil
}

// Children returns the top-level nodes in document order.
func (d *Document) Children() []Node { return d.children }

// SetRoot replaces the document element (installing one if absent).
func (d *Document) SetRoot(e *Element) {
	for i, c := range d.children {
		if _, ok := c.(*Element); ok {
			d.children[i] = e
			e.parent = d
			adoptTree(e, d)
			return
		}
	}
	d.children = append(d.children, e)
	e.parent = d
	adoptTree(e, d)
}

// Element is an XML element: a name, attribute nodes and ordered children.
type Element struct {
	Name Name

	attrs    []*Attr
	children []Node
	parent   Node // *Element or *Document
	doc      *Document
}

// NewElement returns a detached element with the given local name.
func NewElement(local string) *Element {
	return &Element{Name: Name{Local: local}}
}

// NewElementNS returns a detached element with a namespaced name.
func NewElementNS(space, local string) *Element {
	return &Element{Name: Name{Space: space, Local: local}}
}

// Type implements Node.
func (e *Element) Type() NodeType { return ElementNode }

// ParentNode implements Node.
func (e *Element) ParentNode() Node { return e.parent }

// Document implements Node.
func (e *Element) Document() *Document { return e.doc }

// StringValue concatenates the data of all descendant text nodes.
func (e *Element) StringValue() string {
	var sb strings.Builder
	e.appendText(&sb)
	return sb.String()
}

func (e *Element) appendText(sb *strings.Builder) {
	for _, c := range e.children {
		switch n := c.(type) {
		case *Text:
			sb.WriteString(n.Data)
		case *Element:
			n.appendText(sb)
		}
	}
}

// Parent returns the parent element, or nil when the element is the root or
// detached.
func (e *Element) Parent() *Element {
	p, _ := e.parent.(*Element)
	return p
}

// Children returns the element's child nodes in document order.
func (e *Element) Children() []Node { return e.children }

// Attrs returns the element's attribute nodes in declaration order.
func (e *Element) Attrs() []*Attr { return e.attrs }

// Attr looks up an attribute by expanded name and reports whether it exists.
func (e *Element) Attr(space, local string) (string, bool) {
	for _, a := range e.attrs {
		if a.Name.Space == space && a.Name.Local == local {
			return a.Value, true
		}
	}
	return "", false
}

// AttrValue returns the value of the named no-namespace attribute, or "".
func (e *Element) AttrValue(local string) string {
	v, _ := e.Attr("", local)
	return v
}

// AttrNode returns the attribute node with the given expanded name, or nil.
func (e *Element) AttrNode(space, local string) *Attr {
	for _, a := range e.attrs {
		if a.Name.Space == space && a.Name.Local == local {
			return a
		}
	}
	return nil
}

// SetAttr sets (or replaces) a no-namespace attribute and returns e to allow
// call chaining while building trees.
func (e *Element) SetAttr(local, value string) *Element {
	return e.SetAttrNS("", local, value)
}

// SetAttrNS sets (or replaces) a namespaced attribute.
func (e *Element) SetAttrNS(space, local, value string) *Element {
	for _, a := range e.attrs {
		if a.Name.Space == space && a.Name.Local == local {
			a.Value = value
			return e
		}
	}
	e.attrs = append(e.attrs, &Attr{Name: Name{Space: space, Local: local}, Value: value, owner: e})
	return e
}

// RemoveAttr deletes the attribute with the given expanded name, reporting
// whether it was present.
func (e *Element) RemoveAttr(space, local string) bool {
	for i, a := range e.attrs {
		if a.Name.Space == space && a.Name.Local == local {
			a.owner = nil
			e.attrs = append(e.attrs[:i], e.attrs[i+1:]...)
			return true
		}
	}
	return false
}

// ChildElements returns the element children in document order.
func (e *Element) ChildElements() []*Element {
	var out []*Element
	for _, c := range e.children {
		if ce, ok := c.(*Element); ok {
			out = append(out, ce)
		}
	}
	return out
}

// ChildElementsNamed returns child elements whose local name matches,
// regardless of namespace.
func (e *Element) ChildElementsNamed(local string) []*Element {
	var out []*Element
	for _, c := range e.children {
		if ce, ok := c.(*Element); ok && ce.Name.Local == local {
			out = append(out, ce)
		}
	}
	return out
}

// FirstChildElement returns the first child element with the given local
// name, or the first child element of any name when local is "*", or nil.
func (e *Element) FirstChildElement(local string) *Element {
	for _, c := range e.children {
		if ce, ok := c.(*Element); ok && (local == "*" || ce.Name.Local == local) {
			return ce
		}
	}
	return nil
}

// Text returns the concatenated data of the element's immediate text
// children (not descendants), trimmed of surrounding whitespace.
func (e *Element) Text() string {
	var sb strings.Builder
	for _, c := range e.children {
		if t, ok := c.(*Text); ok {
			sb.WriteString(t.Data)
		}
	}
	return strings.TrimSpace(sb.String())
}

// Descendants calls fn for every descendant element in document order,
// stopping early if fn returns false.
func (e *Element) Descendants(fn func(*Element) bool) {
	for _, c := range e.children {
		if ce, ok := c.(*Element); ok {
			if !fn(ce) {
				return
			}
			ce.Descendants(fn)
		}
	}
}

// Ancestors returns the chain of ancestor elements, nearest first.
func (e *Element) Ancestors() []*Element {
	var out []*Element
	for p := e.Parent(); p != nil; p = p.Parent() {
		out = append(out, p)
	}
	return out
}

// Path returns a slash-separated local-name path from the root to e, useful
// in error messages (e.g. "museum/painter/painting").
func (e *Element) Path() string {
	names := []string{e.Name.Local}
	for p := e.Parent(); p != nil; p = p.Parent() {
		names = append(names, p.Name.Local)
	}
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	return strings.Join(names, "/")
}

// Text is a run of character data.
type Text struct {
	Data string
	// CData requests that serialization write the run as a CDATA section.
	// (The tokenizer does not distinguish CDATA on input, so the flag is
	// meaningful for programmatically built trees.)
	CData bool

	parent Node
	doc    *Document
}

// NewText returns a detached text node.
func NewText(data string) *Text { return &Text{Data: data} }

// Type implements Node.
func (t *Text) Type() NodeType { return TextNode }

// ParentNode implements Node.
func (t *Text) ParentNode() Node { return t.parent }

// Document implements Node.
func (t *Text) Document() *Document { return t.doc }

// StringValue returns the character data.
func (t *Text) StringValue() string { return t.Data }

// Comment is an XML comment.
type Comment struct {
	Data string

	parent Node
	doc    *Document
}

// Type implements Node.
func (c *Comment) Type() NodeType { return CommentNode }

// ParentNode implements Node.
func (c *Comment) ParentNode() Node { return c.parent }

// Document implements Node.
func (c *Comment) Document() *Document { return c.doc }

// StringValue returns the comment text.
func (c *Comment) StringValue() string { return c.Data }

// ProcInst is a processing instruction such as <?xml-stylesheet ...?>.
type ProcInst struct {
	Target string
	Data   string

	parent Node
	doc    *Document
}

// Type implements Node.
func (p *ProcInst) Type() NodeType { return ProcInstNode }

// ParentNode implements Node.
func (p *ProcInst) ParentNode() Node { return p.parent }

// Document implements Node.
func (p *ProcInst) Document() *Document { return p.doc }

// StringValue returns the instruction data.
func (p *ProcInst) StringValue() string { return p.Data }

// Attr is an attribute node. Attributes participate in XPath node-sets but
// are not children of their owning element.
type Attr struct {
	Name  Name
	Value string

	owner *Element
}

// Type implements Node.
func (a *Attr) Type() NodeType { return AttributeNode }

// ParentNode implements Node; per XPath the owning element is the parent.
func (a *Attr) ParentNode() Node {
	if a.owner == nil {
		return nil
	}
	return a.owner
}

// Document implements Node.
func (a *Attr) Document() *Document {
	if a.owner == nil {
		return nil
	}
	return a.owner.doc
}

// StringValue returns the attribute value.
func (a *Attr) StringValue() string { return a.Value }

// Verify that all concrete types satisfy Node.
var (
	_ Node = (*Document)(nil)
	_ Node = (*Element)(nil)
	_ Node = (*Text)(nil)
	_ Node = (*Comment)(nil)
	_ Node = (*ProcInst)(nil)
	_ Node = (*Attr)(nil)
)
