package conceptual

import (
	"fmt"
	"slices"

	"repro/internal/xmldom"
)

// ExportInstance renders one instance as a standalone XML document in the
// shape of the paper's Figures 7–8 (picasso.xml, avignon.xml): the class
// name as root element, the id as an attribute, and each attribute as a
// child element — and, crucially, no links. Link structure lives in the
// linkbase, which is the whole point of the separation. AppendDocument
// writes the tree's serialization without building it.
func ExportInstance(inst *Instance) *xmldom.Document {
	root := xmldom.NewElement(inst.Class)
	root.SetAttr("id", inst.ID)
	for _, name := range inst.AttrNames() {
		root.AddElement(name).AppendText(inst.Attr(name))
	}
	doc := xmldom.NewDocument(root)
	doc.BaseURI = inst.ID + ".xml"
	return doc
}

// declaration is the XML declaration an indented document starts with,
// and its line break.
const declaration = `<?xml version="1.0" encoding="UTF-8"?>` + "\n"

// AppendDocument appends inst's data document to dst, the bytes
// ExportInstance(inst).AppendIndented(nil) returns, and returns the
// extended slice. It writes them straight from the instance, with no
// tree built: the declaration, then the root element named for the
// class with the id attribute, holding each attribute in name order as
// a child element on a line of its own, indented two spaces. Names are
// written as they are, values escaped as the serializer escapes them.
func AppendDocument(dst []byte, inst *Instance) []byte {
	dst = append(dst, declaration...)
	dst = append(dst, '<')
	dst = append(dst, inst.Class...)
	dst = append(dst, ` id="`...)
	dst = xmldom.AppendAttrValue(dst, inst.ID)
	if len(inst.attrs) == 0 {
		return append(dst, "\"/>\n"...)
	}
	dst = append(dst, "\">"...)
	var held [16]string
	names := held[:0]
	for name := range inst.attrs {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		dst = append(dst, "\n  <"...)
		dst = append(dst, name...)
		dst = append(dst, '>')
		dst = xmldom.AppendCharData(dst, inst.attrs[name])
		dst = append(dst, "</"...)
		dst = append(dst, name...)
		dst = append(dst, '>')
	}
	dst = append(dst, "\n</"...)
	dst = append(dst, inst.Class...)
	return append(dst, ">\n"...)
}

// DocumentSize returns how many bytes AppendDocument appends for inst
// when its id and values hold nothing to escape, and otherwise fewer:
// escaping only lengthens them. It sizes buffers for AppendDocument.
func DocumentSize(inst *Instance) int {
	n := len(declaration) + len(`< id=""`) + len(inst.Class) + len(inst.ID)
	if len(inst.attrs) == 0 {
		return n + len("/>\n")
	}
	n += len(">\n</>\n") + len(inst.Class)
	for name, value := range inst.attrs {
		n += len("\n  <></>") + 2*len(name) + len(value)
	}
	return n
}

// ExportAll exports every instance to its own document, returning a map
// from suggested file name ("<id>.xml") to document. Exporting the store
// a core.App holds is safe only while no mutation runs. core.App does
// not call it (it writes each instance's document with AppendDocument
// and keeps only the bytes); it is kept for the benchmark module's
// replay, its only caller outside tests.
func ExportAll(s *Store) map[string]*xmldom.Document {
	out := make(map[string]*xmldom.Document, s.Len())
	for _, inst := range s.Instances() {
		out[inst.ID+".xml"] = ExportInstance(inst)
	}
	return out
}

// ImportInstance parses a document produced by ExportInstance back into
// the store.
func ImportInstance(s *Store, doc *xmldom.Document) (*Instance, error) {
	root := doc.Root()
	if root == nil {
		return nil, fmt.Errorf("conceptual: import: empty document")
	}
	id := root.AttrValue("id")
	attrs := map[string]string{}
	for _, c := range root.ChildElements() {
		attrs[c.Name.Local] = c.Text()
	}
	return s.Add(root.Name.Local, id, attrs)
}
