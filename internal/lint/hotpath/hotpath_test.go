package hotpath_test

import (
	"path/filepath"
	"testing"

	"repro/internal/lint/analysistest"
	"repro/internal/lint/hotpath"
)

func TestHotpath(t *testing.T) {
	dir := filepath.Join("..", "testdata", "src", "hotpathtest")
	analysistest.Run(t, dir, hotpath.Analyzer)
}
