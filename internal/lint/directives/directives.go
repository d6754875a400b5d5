// Package directives implements the navlint analyzer that validates
// the //repro: annotation grammar itself, so a typo cannot silently
// disable a rule: a misspelled or unknown verb, an allow without a
// reason, or a hotpath/apimux/nostore directive floating on a line no
// function declaration claims is reported here rather than quietly
// ignored by the analyzers that consume it.
package directives

import (
	"go/ast"

	"repro/internal/lint/analysis"
	"repro/internal/lint/annotations"
)

// Analyzer validates //repro: directives.
var Analyzer = &analysis.Analyzer{
	Name: "directives",
	Doc:  "rejects malformed or misplaced //repro: annotations",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		df := annotations.Parse(pass.Fset, file)
		if len(df.All) == 0 {
			continue
		}
		// Which directive lines does some function declaration claim?
		claimed := map[int]bool{}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fd.Doc != nil {
				start := pass.Fset.Position(fd.Doc.Pos()).Line
				end := pass.Fset.Position(fd.Doc.End()).Line
				for line := start; line <= end; line++ {
					claimed[line] = true
				}
			}
			line := pass.Fset.Position(fd.Pos()).Line
			claimed[line] = true
			claimed[line-1] = true
		}
		for _, d := range df.All {
			switch {
			case d.Malformed != "":
				pass.Reportf(d.Pos, "malformed //repro: directive: %s", d.Malformed)
			case d.Kind != annotations.KindAllow && !claimed[d.Line]:
				// Every verb but allow annotates a function.
				pass.Reportf(d.Pos, "//repro:%s is not attached to a function declaration and has no effect", d.Kind)
			}
		}
	}
	return nil, nil
}
