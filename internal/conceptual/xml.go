package conceptual

import (
	"fmt"

	"repro/internal/xmldom"
)

// ExportInstance renders one instance as a standalone XML document in the
// shape of the paper's Figures 7–8 (picasso.xml, avignon.xml): the class
// name as root element, the id as an attribute, and each attribute as a
// child element — and, crucially, no links. Link structure lives in the
// linkbase, which is the whole point of the separation.
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

// ExportAll exports every instance to its own document, returning a map
// from suggested file name ("<id>.xml") to document. Exporting the store
// a core.App holds is safe only while no mutation runs. core.App does
// not call it (it exports instance by instance and keeps only the
// bytes); it is kept for the benchmark module's replay, its only caller
// outside tests.
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
