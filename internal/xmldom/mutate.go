package xmldom

import "fmt"

// adoptTree stamps the owning document onto a node and its descendants.
func adoptTree(n Node, doc *Document) {
	switch v := n.(type) {
	case *Element:
		v.doc = doc
		for _, a := range v.attrs {
			a.owner = v
		}
		for _, c := range v.children {
			adoptTree(c, doc)
		}
	case *Text:
		v.doc = doc
	case *Comment:
		v.doc = doc
	case *ProcInst:
		v.doc = doc
	}
}

func setParent(n Node, parent Node) {
	switch v := n.(type) {
	case *Element:
		v.parent = parent
	case *Text:
		v.parent = parent
	case *Comment:
		v.parent = parent
	case *ProcInst:
		v.parent = parent
	default:
		panic(fmt.Sprintf("xmldom: node type %v cannot be a child", n.Type()))
	}
}

// AppendChild adds n as the last child of e and returns e for chaining.
// The child is adopted into e's document.
func (e *Element) AppendChild(n Node) *Element {
	setParent(n, e)
	adoptTree(n, e.doc)
	e.children = append(e.children, n)
	return e
}

// AppendText appends a text node with the given data and returns e.
func (e *Element) AppendText(data string) *Element {
	return e.AppendChild(NewText(data))
}

// AddElement creates a child element with the given local name, appends it,
// and returns the new child (not e), supporting fluent tree building.
func (e *Element) AddElement(local string) *Element {
	c := NewElement(local)
	e.AppendChild(c)
	return c
}

// InsertChildAt inserts n at index i among e's children (clamped to the
// valid range) and returns e.
func (e *Element) InsertChildAt(i int, n Node) *Element {
	if i < 0 {
		i = 0
	}
	if i > len(e.children) {
		i = len(e.children)
	}
	setParent(n, e)
	adoptTree(n, e.doc)
	e.children = append(e.children, nil)
	copy(e.children[i+1:], e.children[i:])
	e.children[i] = n
	return e
}

// RemoveChild detaches n from e, reporting whether it was a child.
func (e *Element) RemoveChild(n Node) bool {
	for i, c := range e.children {
		if c == n {
			setParent(n, nil)
			adoptTree(n, nil)
			e.children = append(e.children[:i], e.children[i+1:]...)
			return true
		}
	}
	return false
}

// RemoveAllChildren detaches every child of e.
func (e *Element) RemoveAllChildren() {
	for _, c := range e.children {
		setParent(c, nil)
		adoptTree(c, nil)
	}
	e.children = nil
}

// ChildIndex returns the position of n among e's children, or -1.
func (e *Element) ChildIndex(n Node) int {
	for i, c := range e.children {
		if c == n {
			return i
		}
	}
	return -1
}

// Clone returns a deep copy of the element, detached from any document.
func (e *Element) Clone() *Element {
	out := &Element{Name: e.Name}
	for _, a := range e.attrs {
		out.attrs = append(out.attrs, &Attr{Name: a.Name, Value: a.Value, owner: out})
	}
	for _, c := range e.children {
		out.AppendChild(CloneNode(c))
	}
	return out
}

// CloneNode deep-copies any child-capable node (element, text, comment, PI).
func CloneNode(n Node) Node {
	switch v := n.(type) {
	case *Element:
		return v.Clone()
	case *Text:
		return &Text{Data: v.Data, CData: v.CData}
	case *Comment:
		return &Comment{Data: v.Data}
	case *ProcInst:
		return &ProcInst{Target: v.Target, Data: v.Data}
	default:
		panic(fmt.Sprintf("xmldom: cannot clone node type %v", n.Type()))
	}
}

// Clone returns a deep copy of the document.
func (d *Document) Clone() *Document {
	out := &Document{BaseURI: d.BaseURI}
	for _, c := range d.children {
		cc := CloneNode(c)
		setParent(cc, out)
		adoptTree(cc, out)
		out.children = append(out.children, cc)
	}
	return out
}

// NewDocument returns a document with the given element installed as root.
func NewDocument(root *Element) *Document {
	d := &Document{}
	if root != nil {
		d.SetRoot(root)
	}
	return d
}

// GetElementByID searches the document for an element whose xml:id or id
// attribute equals id, returning nil when absent. This implements the
// DTD-less ID lookup used by XPointer shorthand pointers.
func (d *Document) GetElementByID(id string) *Element {
	root := d.Root()
	if root == nil || id == "" {
		return nil
	}
	if elementID(root) == id {
		return root
	}
	var found *Element
	root.Descendants(func(e *Element) bool {
		if elementID(e) == id {
			found = e
			return false
		}
		return true
	})
	return found
}

// XMLNamespace is the URI bound to the reserved xml prefix.
const XMLNamespace = "http://www.w3.org/XML/1998/namespace"

func elementID(e *Element) string {
	if v, ok := e.Attr(XMLNamespace, "id"); ok {
		return v
	}
	if v, ok := e.Attr("", "id"); ok {
		return v
	}
	return ""
}

// docOrderPath returns the child-index path from the document (or detached
// root) down to n. Attribute nodes sort just after their owner element and
// before its children, per XPath document order; they are keyed by owner
// path plus an attribute ordinal.
func docOrderPath(n Node) []int {
	var path []int
	cur := n
	if a, ok := n.(*Attr); ok {
		if a.owner == nil {
			return []int{-1}
		}
		idx := 0
		for i, at := range a.owner.attrs {
			if at == a {
				idx = i
				break
			}
		}
		path = append(path, idx, -1) // reversed later; -1 sorts attrs before children
		cur = a.owner
	}
	for {
		parent := cur.ParentNode()
		if parent == nil {
			break
		}
		var idx int
		switch p := parent.(type) {
		case *Element:
			idx = p.ChildIndex(cur)
		case *Document:
			idx = -1
			for i, c := range p.children {
				if c == cur {
					idx = i
					break
				}
			}
		}
		path = append(path, idx)
		cur = parent
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// CompareDocOrder orders two nodes of the same tree: -1 when a precedes b,
// +1 when it follows, 0 when identical. Nodes from different trees get a
// stable but arbitrary order.
func CompareDocOrder(a, b Node) int {
	if a == b {
		return 0
	}
	pa, pb := docOrderPath(a), docOrderPath(b)
	for i := 0; i < len(pa) && i < len(pb); i++ {
		switch {
		case pa[i] < pb[i]:
			return -1
		case pa[i] > pb[i]:
			return 1
		}
	}
	switch {
	case len(pa) < len(pb):
		return -1
	case len(pa) > len(pb):
		return 1
	}
	return 0
}
