package directives_test

import (
	"path/filepath"
	"testing"

	"repro/internal/lint/analysistest"
	"repro/internal/lint/directives"
)

func TestDirectives(t *testing.T) {
	dir := filepath.Join("..", "testdata", "src", "directivestest")
	analysistest.Run(t, dir, directives.Analyzer)
}
