package lint_test

import (
	"path/filepath"
	"testing"

	"repro/internal/lint/analysis"
	"repro/internal/lint/analysistest"
	"repro/internal/lint/apihandler"
	"repro/internal/lint/directives"
	"repro/internal/lint/hotpath"
	"repro/internal/lint/locks"
	"repro/internal/lint/planes"
)

// TestNegativeCorpus runs every analyzer over the clean corpus, which
// uses all the annotations correctly and must produce zero findings.
func TestNegativeCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "src", "clean")
	for _, a := range []*analysis.Analyzer{
		directives.Analyzer,
		hotpath.Analyzer,
		locks.Analyzer,
		planes.Analyzer,
		apihandler.Analyzer,
	} {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			analysistest.Run(t, dir, a)
		})
	}
}
