package locks_test

import (
	"path/filepath"
	"testing"

	"repro/internal/lint/analysistest"
	"repro/internal/lint/locks"
)

func TestLocks(t *testing.T) {
	dir := filepath.Join("..", "testdata", "src", "lockstest")
	analysistest.Run(t, dir, locks.Analyzer)
}
