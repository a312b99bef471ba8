package main

// CLI-level archive tests: corruption detected by `archive verify`
// must surface as a nonzero exit naming the damaged chunk, and the
// `commit-bench` → `regress` path must go red on a slowdown and green
// on a clean re-run — the exact contract the CI regression gate leans
// on.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphalytics/internal/archive"
)

const cliBenchA = `{
  "date": "2026-08-07",
  "results": [
    {"name": "BenchmarkEngineExecute/native/CDLP-8", "ns_per_op": 1000000, "allocs_per_op": 10},
    {"name": "BenchmarkEngineExecute/native/BFS-8", "ns_per_op": 500000, "allocs_per_op": 5},
    {"name": "BenchmarkSnapshotMapOpen/scale12-8", "ns_per_op": 1000},
    {"name": "BenchmarkSnapshotMapOpen/scale16-8", "ns_per_op": 1300}
  ]
}`

// cliBenchB doubles the CDLP hot path and leaves everything else level.
const cliBenchB = `{
  "date": "2026-08-08",
  "results": [
    {"name": "BenchmarkEngineExecute/native/CDLP-4", "ns_per_op": 2000000, "allocs_per_op": 10},
    {"name": "BenchmarkEngineExecute/native/BFS-4", "ns_per_op": 500000, "allocs_per_op": 5},
    {"name": "BenchmarkSnapshotMapOpen/scale12-4", "ns_per_op": 1000},
    {"name": "BenchmarkSnapshotMapOpen/scale16-4", "ns_per_op": 1300}
  ]
}`

// commitBenchCLI runs `archive commit-bench` on a snapshot literal.
func commitBenchCLI(t *testing.T, dir, name, benchJSON string) {
	t.Helper()
	in := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(in, []byte(benchJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdArchive([]string{"commit-bench", "-dir", dir, "-name", name, "-in", in}); err != nil {
		t.Fatalf("commit-bench %s: %v", name, err)
	}
}

func TestArchiveCLIVerifyNamesCorruptChunk(t *testing.T) {
	dir := t.TempDir()
	commitBenchCLI(t, dir, "bench/day1", cliBenchA)

	// A pristine archive verifies clean through the CLI.
	if err := cmdArchive([]string{"verify", "-dir", dir}); err != nil {
		t.Fatalf("verify on pristine archive: %v", err)
	}

	// Flip one byte of the bench chunk in its pack.
	a, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	head, err := a.Head()
	if err != nil {
		t.Fatal(err)
	}
	c, err := a.Load(head)
	if err != nil {
		t.Fatal(err)
	}
	path, off, end, err := a.ChunkRange(c, archive.ChunkBench)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[(off+end)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	err = cmdArchive([]string{"verify", "-dir", dir})
	if err == nil {
		t.Fatal("verify passed on a corrupted archive")
	}
	if !strings.Contains(err.Error(), archive.ChunkBench) {
		t.Fatalf("verify error does not name the bad chunk: %v", err)
	}
}

func TestArchiveCLIRegressRedOnSlowdownGreenOnBaseline(t *testing.T) {
	dir := t.TempDir()
	gate := []string{"-gate", "EngineExecute/.*/CDLP/ns", "-gate", "derived/map_open_ratio"}

	// Green: two identical snapshots — regress HEAD against its parent.
	commitBenchCLI(t, dir, "bench/day1", cliBenchA)
	commitBenchCLI(t, dir, "bench/day1-rerun", cliBenchA)
	args := append([]string{"regress", "-dir", dir}, gate...)
	if err := cmdArchive(args); err != nil {
		t.Fatalf("regress on identical snapshots: %v", err)
	}

	// Red: a 2x CDLP slowdown against the same parent.
	commitBenchCLI(t, dir, "bench/day2", cliBenchB)
	if err := cmdArchive(args); err == nil {
		t.Fatal("regress passed on a 2x CDLP slowdown")
	} else if !strings.Contains(err.Error(), "regression") {
		t.Fatalf("regress error: %v", err)
	}

	// Green again when judged against an explicit matching baseline —
	// and the baseline may be a different archive directory.
	other := t.TempDir()
	commitBenchCLI(t, other, "bench/elsewhere", cliBenchB)
	args = append([]string{"regress", "-dir", dir, "-baseline", other}, gate...)
	if err := cmdArchive(args); err != nil {
		t.Fatalf("regress against external baseline archive: %v", err)
	}

	// A gate without -gate flags is a usage error, not a silent pass.
	if err := cmdArchive([]string{"regress", "-dir", dir}); err == nil {
		t.Fatal("regress without gates should refuse to run")
	}
}

func TestArchiveCLIReportAndShow(t *testing.T) {
	dir := t.TempDir()
	commitBenchCLI(t, dir, "bench/day1", cliBenchA)

	// show -chunk round-trips the archived snapshot bytes... to stdout,
	// so just exercise the record path and the error path here.
	if err := cmdArchive([]string{"show", "-dir", dir}); err != nil {
		t.Fatalf("show HEAD: %v", err)
	}
	if err := cmdArchive([]string{"show", "-dir", dir, "-chunk", "no-such-chunk"}); err == nil {
		t.Fatal("show of a missing chunk should fail")
	}
	if err := cmdArchive([]string{"head", "-dir", dir}); err != nil {
		t.Fatalf("head: %v", err)
	}
	if err := cmdArchive([]string{"log", "-dir", dir}); err != nil {
		t.Fatalf("log: %v", err)
	}

	// report on a bench commit is a type error: reports render results
	// commits.
	if err := cmdArchive([]string{"report", "-dir", dir, "-out", filepath.Join(t.TempDir(), "report")}); err == nil {
		t.Fatal("report on a bench commit should fail")
	}

	// Unknown subcommands and an empty archive's head are errors.
	if err := cmdArchive([]string{"frobnicate"}); err == nil {
		t.Fatal("unknown subcommand should fail")
	}
	if err := cmdArchive([]string{"head", "-dir", t.TempDir()}); err == nil {
		t.Fatal("head of an empty archive should fail")
	}
}
