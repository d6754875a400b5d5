// Package planes implements the navlint analyzer that keeps the
// navigational aspect separated — the paper's core claim — by machine
// rather than by convention: the import layering. rules.Layering
// forbids the foundation layers (navigation, conceptual, presentation,
// storage, the XML stack) from importing the application core, the
// serving stack or the control plane; analytics from importing core or
// server; core from importing server; and so on. A violation is
// reported at the offending import spec.
//
// The split between the serve and control planes inside the server
// needs no rule here: the serving routes hold a core.Reader, which has
// no mutation to call, and the compiler checks that.
package planes

import (
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/rules"
)

// Analyzer is the planes rule with the repository's layering table.
var Analyzer = New(rules.Layering)

// New builds a planes analyzer over an explicit layering table (tests
// supply a small one).
func New(layering []rules.ImportRule) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "planes",
		Doc:  "enforces the import layering between planes",
		Run: func(pass *analysis.Pass) (any, error) {
			checkImports(pass, layering)
			return nil, nil
		},
	}
}

// matchPattern reports whether path matches pattern, where a trailing
// "/..." matches the package and its subtree.
func matchPattern(pattern, path string) bool {
	if prefix, ok := strings.CutSuffix(pattern, "/..."); ok {
		return path == prefix || strings.HasPrefix(path, prefix+"/")
	}
	return path == pattern
}

func checkImports(pass *analysis.Pass, layering []rules.ImportRule) {
	for _, rule := range layering {
		if !matchPattern(rule.Pkg, pass.Pkg.Path()) {
			continue
		}
		for _, file := range pass.Files {
			for _, spec := range file.Imports {
				path := strings.Trim(spec.Path.Value, `"`)
				for _, forbid := range rule.Forbid {
					if matchPattern(forbid, path) {
						pass.Reportf(spec.Pos(), "plane violation: %s must not import %s (layering rule for %s)",
							pass.Pkg.Path(), path, rule.Pkg)
					}
				}
			}
		}
	}
}
