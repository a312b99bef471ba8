package main

import (
	"context"
	"errors"
	"strings"
	"testing"

	"graphalytics/internal/algorithms"
)

// TestRunRejectsUnknownAlgorithmFirst: a misspelt algorithm fails before
// the dataset is even looked up, and the error lists the valid names.
func TestRunRejectsUnknownAlgorithmFirst(t *testing.T) {
	err := cmdRun(context.Background(), []string{"-algorithm", "bfs", "-dataset", "no-such-dataset"})
	if !errors.Is(err, algorithms.ErrUnknownAlgorithm) {
		t.Fatalf("err = %v, want ErrUnknownAlgorithm", err)
	}
	if !strings.Contains(err.Error(), "BFS PR WCC CDLP LCC SSSP") {
		t.Errorf("error %q does not list the valid names", err)
	}
}
