package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/granula"
	"graphalytics/internal/workload"
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

// TestRunSingleJobWritesArchiveAndOutput drives the single-job run end to
// end: the Granula archive it writes parses, and the output it writes
// reads back equal to the reference.
func TestRunSingleJobWritesArchiveAndOutput(t *testing.T) {
	dir := t.TempDir()
	archivePath := filepath.Join(dir, "archive.json")
	outputPath := filepath.Join(dir, "bfs.out")
	if err := cmdRun(context.Background(), []string{
		"-platform", "native", "-dataset", "R1", "-algorithm", "BFS", "-threads", "2",
		"-archive", archivePath, "-output", outputPath,
	}); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(archivePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	arch, err := granula.ReadArchive(f)
	if err != nil {
		t.Fatal(err)
	}
	if arch.Root == nil || arch.ProcessingTime() <= 0 {
		t.Errorf("archive has no processing phase: %+v", arch)
	}

	o, err := os.Open(outputPath)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	ids, got, err := algorithms.ReadOutput(o, algorithms.BFS)
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.Load("R1")
	if err != nil {
		t.Fatal(err)
	}
	d, err := workload.ByID("R1")
	if err != nil {
		t.Fatal(err)
	}
	want, err := algorithms.RunReference(g, algorithms.BFS, d.Params)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ids, g.IDs()) {
		t.Error("output identifiers differ from the graph's")
	}
	if !slices.Equal(got.Int, want.Int) || got.Float != nil {
		t.Error("output differs from the reference")
	}
}

// TestRunSingleJobSLA: the -sla window covers the upload, so a budget no
// upload fits in fails the run with the deadline. The error carries no
// "graphalytics: " prefix of its own: main adds it once.
func TestRunSingleJobSLA(t *testing.T) {
	err := cmdRun(context.Background(), []string{"-platform", "native", "-dataset", "R1", "-algorithm", "BFS", "-sla", "1ns"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if strings.HasPrefix(err.Error(), "graphalytics: ") {
		t.Errorf("err = %q, want no graphalytics: prefix (main adds it)", err)
	}
}
