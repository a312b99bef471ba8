package graph500_test

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"graphalytics/internal/graph"
	"graphalytics/internal/graph500"
)

// TestGenerateGolden pins the snapshot bytes of generated graphs. The
// values were produced by the sequential single-stream generator, so they
// hold the parallel generator to the exact same edges in the same order at
// every worker count: every stored snapshot, fingerprint and oracle built
// from graph500 output depends on that. The scale-17 entry spans many
// block rounds per worker even at GOMAXPROCS 8.
func TestGenerateGolden(t *testing.T) {
	cases := []struct {
		cfg graph500.Config
		crc uint32
	}{
		{graph500.Config{Scale: 5, Seed: 1}, 0x1b131425},
		{graph500.Config{Scale: 9, Seed: 4, Directed: true}, 0x79041628},
		{graph500.Config{Scale: 10, Seed: 3, Weighted: true}, 0x3d35a622},
		{graph500.Config{Scale: 11, Seed: 9, A: 0.45, B: 0.25, C: 0.15, Weighted: true}, 0xd4d50a16},
		{graph500.Config{Scale: 12, Seed: 7, Directed: true, Weighted: true}, 0x5b5e10c6},
		{graph500.Config{Scale: 14, Seed: 2, EdgeFactor: 3}, 0x5e3fd609},
		{graph500.Config{Scale: 17, Seed: 1, Weighted: true}, 0xb79039ff},
	}
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, tc := range cases {
				if got := snapshotCRC(t, tc.cfg); got != tc.crc {
					t.Errorf("%+v: snapshot CRC %08x, want %08x", tc.cfg, got, tc.crc)
				}
			}
		})
	}
}

// snapshotCRC generates cfg and returns the IEEE CRC-32 of its snapshot
// file.
func snapshotCRC(t *testing.T, cfg graph500.Config) uint32 {
	t.Helper()
	g, err := graph500.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.snap")
	if err := graph.WriteSnapshotFile(path, g); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return crc32.ChecksumIEEE(b)
}
