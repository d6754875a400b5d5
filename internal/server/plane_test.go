package server

import (
	"reflect"
	"testing"

	"repro/internal/conceptual"
	"repro/internal/core"
)

// TestServePlaneHoldsNoMutator walks every type the serving plane's
// fields reach — through pointers, slices, maps, arrays, channels and
// struct fields, unexported ones included — and fails if it reaches a
// core.App or a conceptual.Store. Serving code sees the woven model
// only through its core.Reader, so it holds nothing that mutates it.
// Functions and interfaces are opaque to the walk.
func TestServePlaneHoldsNoMutator(t *testing.T) {
	app := reflect.TypeOf((*core.App)(nil)).Elem()
	store := reflect.TypeOf((*conceptual.Store)(nil)).Elem()
	seen := map[reflect.Type]bool{}
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		if seen[typ] {
			return
		}
		seen[typ] = true
		if typ == app || typ == store {
			t.Errorf("serving reaches %s: %s%s", typ, path, typ)
		}
		switch typ.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Chan:
			walk(typ.Elem(), path)
		case reflect.Map:
			walk(typ.Key(), path)
			walk(typ.Elem(), path)
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(f.Type, path+typ.String()+"."+f.Name+"→")
			}
		}
	}
	walk(reflect.TypeOf(serving{}), "")
	if !seen[reflect.TypeOf(core.Reader{})] {
		t.Error("the walk never reached core.Reader: serving no longer holds the model it serves")
	}
	t.Logf("walked %d types", len(seen))
}
