package apihandler_test

import (
	"path/filepath"
	"testing"

	"repro/internal/lint/analysistest"
	"repro/internal/lint/apihandler"
)

func TestAPIHandler(t *testing.T) {
	dir := filepath.Join("..", "testdata", "src", "apitest")
	analysistest.Run(t, dir, apihandler.Analyzer)
}
