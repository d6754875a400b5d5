package conceptual_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/conceptual"
	"repro/internal/museum"
	"repro/internal/xmldom"
)

// FuzzAppendDocument holds the data-document writer to its tree twin:
// for any class name, id, attribute names and values an instance can
// hold, AppendDocument appends exactly what ExportInstance's tree
// serializes to, and DocumentSize is that length whenever nothing in the
// id or the values needs escaping and never more. attrs holds the
// attribute names and values in turn, split at NUL bytes. The seeds are
// the 50/20/8 synthetic museum's instances and the characters the
// serializer escapes.
func FuzzAppendDocument(f *testing.F) {
	store := museum.Synthetic(museum.SyntheticSpec{Painters: 50, PaintingsPerPainter: 20, Movements: 8, Seed: 1})
	for _, inst := range store.Instances() {
		var fields []string
		for _, name := range inst.AttrNames() {
			fields = append(fields, name, inst.Attr(name))
		}
		f.Add(inst.Class, inst.ID, strings.Join(fields, "\x00"))
	}
	f.Add("Painting", "p1", "")
	f.Add("Painting", "p1", "title\x00\x00year\x00")
	f.Add("Painting", `a&b<c>d"e`, "title\x00Fish & <Chips> \"x\"\x00caption\x00line\r\nnext\tcol")
	f.Add("P\tx", "id\r\n\t", "\t\x00 \r \x00note\x00  \n  ")
	f.Add("Painter", "bad\xffid\xc3", "name\x00Pic\xe2\x82asso\xff\x00z\x00\xf0\x9f\x8e\xa8")
	f.Fuzz(func(t *testing.T, class, id, attrs string) {
		fields := strings.Split(attrs, "\x00")
		if attrs == "" {
			fields = nil
		}
		values := map[string]string{}
		var defs []conceptual.AttrDef
		for i := 0; i < len(fields); i += 2 {
			value := ""
			if i+1 < len(fields) {
				value = fields[i+1]
			}
			values[fields[i]] = value
			defs = append(defs, conceptual.AttrDef{Name: fields[i], Type: conceptual.StringAttr})
		}
		schema := conceptual.NewSchema()
		if err := schema.AddClass(conceptual.NewClass(class, defs...)); err != nil {
			t.Skip(err)
		}
		inst, err := conceptual.NewStore(schema).Add(class, id, values)
		if err != nil {
			t.Skip(err)
		}
		want := conceptual.ExportInstance(inst).AppendIndented(nil)
		if got := conceptual.AppendDocument(nil, inst); !bytes.Equal(got, want) {
			t.Fatalf("AppendDocument(%s) =\n%q\nthe tree serializes to\n%q", inst, got, want)
		}
		if got := conceptual.AppendDocument([]byte("<prefix/>"), inst); string(got) != "<prefix/>"+string(want) {
			t.Fatalf("AppendDocument after a prefix = %q", got)
		}
		plain := len(xmldom.AppendAttrValue(nil, id)) == len(id)
		for _, v := range values {
			plain = plain && len(xmldom.AppendCharData(nil, v)) == len(v)
		}
		if size := conceptual.DocumentSize(inst); size > len(want) || plain && size != len(want) {
			t.Fatalf("DocumentSize(%s) = %d for %d bytes (nothing escaped: %v)", inst, size, len(want), plain)
		}
	})
}
