package conformance_test

import (
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/cluster"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
	"graphalytics/internal/platforms"
	"graphalytics/internal/platforms/conformance"
)

// update rewrites testdata/cost.golden instead of comparing against it:
//
//	go test ./internal/platforms/conformance -run TestCostGolden -update
var update = flag.Bool("update", false, "rewrite testdata/cost.golden")

// outputCRC is the CRC-32C of the output's per-vertex values as
// little-endian 64-bit words (floats by their IEEE-754 bits).
func outputCRC(out *algorithms.Output) uint32 {
	buf := make([]byte, 0, 8*out.Len())
	for _, v := range out.Int {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	for _, v := range out.Float {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return crc32.Checksum(buf, crc32.MakeTable(crc32.Castagnoli))
}

// mappedCorpus is the corpus as an out-of-core dataset presents it: every
// graph written as a snapshot and reopened as an mmap view for the length
// of the test.
func mappedCorpus(t *testing.T) []conformance.Case {
	t.Helper()
	corpus, dir := conformance.Corpus(), t.TempDir()
	for i, c := range corpus {
		path := filepath.Join(dir, c.Name+".gsnap")
		if err := graph.WriteSnapshotFile(path, c.Graph); err != nil {
			t.Fatal(err)
		}
		mapped, err := graph.MapSnapshotFile(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { mapped.Close() })
		corpus[i].Graph = mapped
	}
	return corpus
}

// costFingerprint runs every registered engine over the corpus — one
// upload per graph and configuration, the supported algorithms in
// algorithms.All order on it — and renders one line per job with
// everything the cost model derives deterministically: rounds, recorded
// inter-machine traffic, modeled network time, peak memory registration
// and the output's CRC. Measured compute time is the only cost left out.
func costFingerprint(t *testing.T, corpus []conformance.Case) string {
	return fingerprint(t, corpus, conformance.Configs)
}

// fingerprint is costFingerprint over the given configurations.
func fingerprint(t *testing.T, corpus []conformance.Case, configs func(platform.Platform) []conformance.Config) string {
	t.Helper()
	ctx := context.Background()
	var b strings.Builder
	for _, p := range platform.All() {
		for _, c := range corpus {
			for _, cfg := range configs(p) {
				rc := platform.RunConfig{Threads: cfg.Threads, Machines: cfg.Machines, Net: cluster.DefaultNetwork()}
				up, err := platform.UploadContext(ctx, p, c.Graph, rc)
				if err != nil {
					t.Fatalf("%s: upload %s (t%d-m%d): %v", p.Name(), c.Name, cfg.Threads, cfg.Machines, err)
				}
				for _, a := range algorithms.All {
					if !p.Supports(a) {
						continue
					}
					res, err := p.Execute(ctx, up, a, c.Params)
					if err != nil {
						t.Fatalf("%s: %s on %s (t%d-m%d): %v", p.Name(), a, c.Name, cfg.Threads, cfg.Machines, err)
					}
					fmt.Fprintf(&b, "%s %s %s t%d-m%d rounds=%d traffic=%d net_ns=%d peak=%d out=%08x\n",
						p.Name(), c.Name, a, cfg.Threads, cfg.Machines,
						res.Rounds, up.Cluster().Traffic(), res.NetworkTime.Nanoseconds(), res.PeakMemory, outputCRC(res.Output))
				}
				up.Free()
			}
		}
	}
	return b.String()
}

// TestCostGolden pins the engines' deterministic cost counters and output
// bits: an engine refactor that leaves testdata/cost.golden byte-identical
// charged the same rounds, bytes and memory and computed the same values.
// A second pass in the same process must reproduce the first, so pooled
// scratch surviving a job cannot leak into the next one's counters, and so
// must a pass over mmap-backed graphs: where the dataset's pages live is
// not something the cost model or any kernel's output may depend on.
func TestCostGolden(t *testing.T) {
	platforms.RegisterAll()
	got := costFingerprint(t, conformance.Corpus())
	path := filepath.Join("testdata", "cost.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("cost fingerprint drifted from %s (rerun with -update and review the diff):\n%s", path, lineDiff(string(want), got))
	}
	if again := costFingerprint(t, conformance.Corpus()); again != got {
		t.Errorf("second pass in the same process differs from the first:\n%s", lineDiff(got, again))
	}
	if mapped := costFingerprint(t, mappedCorpus(t)); mapped != got {
		t.Errorf("pass over mapped graphs differs from the heap pass:\n%s", lineDiff(got, mapped))
	}
}

// lineDiff shows the first line on which two fingerprints differ and how
// many do; `-update` followed by `git diff` shows the rest.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	first, differing := "", max(len(w), len(g))-min(len(w), len(g))
	for i := 0; i < min(len(w), len(g)); i++ {
		if w[i] == g[i] {
			continue
		}
		if differing++; first == "" {
			first = fmt.Sprintf("line %d:\n  want %s\n  got  %s\n", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("%d lines differ; first at %s", differing, first)
}

// TestUnknownAlgorithm requires every engine to fail a name outside the
// core set as unknown, not as an algorithm the engine happens to lack.
func TestUnknownAlgorithm(t *testing.T) {
	platforms.RegisterAll()
	c := conformance.Corpus()[0]
	for _, p := range platform.All() {
		up, err := p.Upload(c.Graph, platform.RunConfig{})
		if err != nil {
			t.Fatalf("%s: upload %s: %v", p.Name(), c.Name, err)
		}
		_, err = p.Execute(context.Background(), up, "XYZ", c.Params)
		if !errors.Is(err, algorithms.ErrUnknownAlgorithm) || errors.Is(err, platform.ErrUnsupported) {
			t.Errorf("%s: Execute(XYZ) = %v, want ErrUnknownAlgorithm and not ErrUnsupported", p.Name(), err)
		}
		up.Free()
	}
}

// TestPeakMemoryIsPerJob runs PR then WCC and WCC then PR on two uploads
// of one graph: a job's PeakMemory is its own high-water mark, so WCC
// reports the same peak whether or not the larger PR state came first.
func TestPeakMemoryIsPerJob(t *testing.T) {
	platforms.RegisterAll()
	ctx := context.Background()
	c := conformance.Corpus()[6] // random-directed
	for _, p := range platform.All() {
		wccPeak := func(order ...algorithms.Algorithm) int64 {
			up, err := p.Upload(c.Graph, platform.RunConfig{Threads: 2})
			if err != nil {
				t.Fatalf("%s: upload %s: %v", p.Name(), c.Name, err)
			}
			defer up.Free()
			var peak int64
			for _, a := range order {
				res, err := p.Execute(ctx, up, a, c.Params)
				if err != nil {
					t.Fatalf("%s: %s: %v", p.Name(), a, err)
				}
				if a == algorithms.WCC {
					peak = res.PeakMemory
				}
			}
			return peak
		}
		after, before := wccPeak(algorithms.PR, algorithms.WCC), wccPeak(algorithms.WCC, algorithms.PR)
		if after != before {
			t.Errorf("%s: WCC PeakMemory = %d after PR but %d before it", p.Name(), after, before)
		}
	}
}
