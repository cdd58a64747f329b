package locksetflow_test

import (
	"path/filepath"
	"testing"

	"darkarts/internal/analysis/analysistest"
	"darkarts/internal/analysis/locksetflow"
)

func TestFlow(t *testing.T) {
	analysistest.Run(t, locksetflow.Analyzer, filepath.Join("testdata", "src", "flow"))
}

func TestLocks(t *testing.T) {
	analysistest.Run(t, locksetflow.Analyzer, filepath.Join("testdata", "src", "locks"))
}
