package planes_test

import (
	"path/filepath"
	"testing"

	"repro/internal/lint/analysistest"
	"repro/internal/lint/planes"
	"repro/internal/lint/rules"
)

func TestPlanes(t *testing.T) {
	dir := filepath.Join("..", "testdata", "src", "planestest")
	a := planes.New([]rules.ImportRule{{Pkg: "planestest/nav", Forbid: []string{"planestest/srv"}}})
	analysistest.Run(t, dir, a)
}
