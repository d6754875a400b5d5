// Package analysis is a self-contained mirror of the
// golang.org/x/tools/go/analysis API surface that navlint's analyzers
// are written against. The toolchain this repository builds with has no
// module proxy access, so instead of vendoring x/tools we implement the
// small slice of it the suite needs: Analyzer, Pass, Diagnostic and
// per-object facts. The shapes (and field names) deliberately match
// x/tools so the analyzers can be moved onto the real framework by
// changing one import line.
//
// cmd/navlint and analysistest run these analyzers the same way: they
// load every package of a module with load.Repo, dependencies first,
// and run the analyzers over each against one FactStore. Facts make
// transitive analyses (the hotpath call-graph walk, the locks acquire
// summaries) cross package boundaries: an analyzer summarizes each
// function it sees and exports the summary as a fact; when analysis
// crosses a package boundary it imports the callee's fact instead of
// its body.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the rule; diagnostics are printed as
	// "pos: [name] message" so a failure names the rule that fired.
	Name string
	// Doc is the one-paragraph description `navlint -list` prints.
	Doc string
	// FactTypes lists the fact value types the analyzer exports and
	// imports; facts of unlisted types are rejected.
	FactTypes []Fact
	// Run executes the analyzer on one package.
	Run func(*Pass) (any, error)
}

// Fact is a package- or object-associated datum an analyzer exports for
// downstream packages. The marker method keeps arbitrary values out of
// the fact store.
type Fact interface{ AFact() }

// Diagnostic is one reported finding.
type Diagnostic struct {
	Pos      token.Pos
	Category string
	Message  string
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)

	// Facts is the driver-owned store this pass reads dependency facts
	// from and writes its own into.
	Facts *FactStore
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ExportObjectFact associates fact with obj for downstream packages.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if err := p.Facts.put(p.Analyzer, obj, fact); err != nil {
		panic(fmt.Sprintf("analysis: exporting %T for %v: %v", fact, obj, err))
	}
}

// ImportObjectFact copies the fact associated with obj (by this
// analyzer, possibly in another package) into *fact and reports whether
// one was found. The copy is shallow: importers must not modify what
// the fact's slices or maps share with the exported value.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	return p.Facts.get(p.Analyzer, obj, fact)
}

// ObjectKey is the canonical cross-package name of an object: the
// types.Func full name for functions and methods (e.g.
// "(*repro/internal/core.App).RenderPageCached"), package path + "." +
// name otherwise. It is identical whether the object was type-checked
// from source or read back from export data, which is what lets a fact
// exported while analyzing one package be found from the packages that
// import it.
func ObjectKey(obj types.Object) string {
	if f, ok := obj.(*types.Func); ok {
		if orig := f.Origin(); orig != nil {
			f = orig // generic instantiations share the origin's facts
		}
		return f.FullName()
	}
	if obj.Pkg() != nil {
		return obj.Pkg().Path() + "." + obj.Name()
	}
	return obj.Name()
}

// factKey identifies one stored fact.
type factKey struct {
	analyzer string
	object   string
	typ      reflect.Type
}

// FactStore holds the facts a run's analyzers export, keyed by
// (analyzer, object, fact type), for the packages analyzed after the
// exporting one.
type FactStore struct {
	m map[factKey]Fact
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore { return &FactStore{m: map[factKey]Fact{}} }

func (s *FactStore) put(a *Analyzer, obj types.Object, fact Fact) error {
	t := reflect.TypeOf(fact)
	for _, ft := range a.FactTypes {
		if reflect.TypeOf(ft) == t {
			s.m[factKey{a.Name, ObjectKey(obj), t}] = fact
			return nil
		}
	}
	return fmt.Errorf("fact type %s not declared in %s.FactTypes", t, a.Name)
}

func (s *FactStore) get(a *Analyzer, obj types.Object, fact Fact) bool {
	stored, ok := s.m[factKey{a.Name, ObjectKey(obj), reflect.TypeOf(fact)}]
	if ok {
		reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(stored).Elem())
	}
	return ok
}
