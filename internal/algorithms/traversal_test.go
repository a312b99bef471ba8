package algorithms_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/graph"
)

// fuzzTraversalGraph decodes bytes into a small unweighted graph for
// FuzzBFSMatchesOracle and FuzzWCCMatchesOracle. data[0] bit 0 makes it
// directed; data[1] sets 1 to 128 vertices, identifiers 0 to n-1, so
// graphs of more than 64 vertices span several words of BFS's frontier
// bitmap; every further two bytes are an edge (source, target). Self-loops
// and repeated edges are skipped.
func fuzzTraversalGraph(data []byte) (*graph.Graph, error) {
	if len(data) < 2 {
		return nil, nil
	}
	directed := data[0]&1 == 1
	n := 1 + int64(data[1])%128
	type arc struct{ src, dst int64 }
	seen := map[arc]bool{}
	b := graph.NewBuilder(directed, false)
	for v := int64(0); v < n; v++ {
		b.AddVertex(v)
	}
	for rest, edges := data[2:], 0; len(rest) >= 2 && edges < 512; rest = rest[2:] {
		a := arc{int64(rest[0]) % n, int64(rest[1]) % n}
		if !directed && a.src > a.dst {
			a.src, a.dst = a.dst, a.src
		}
		if a.src == a.dst || seen[a] {
			continue
		}
		seen[a] = true
		b.AddEdge(a.src, a.dst)
		edges++
	}
	return b.Build()
}

// residency is one copy of a decoded graph: on the heap or mapped.
type residency struct {
	name string
	g    *graph.Graph
}

// fuzzResidencies returns the decoded graph on the heap and mapped from a
// snapshot file, for the traversal fuzz targets to check on both.
func fuzzResidencies(t *testing.T, data []byte) []residency {
	t.Helper()
	g, err := fuzzTraversalGraph(data)
	if err != nil {
		t.Fatalf("decoded graph does not build: %v", err)
	}
	if g == nil {
		return nil
	}
	path := filepath.Join(t.TempDir(), "g.snap")
	if err := graph.WriteSnapshotFile(path, g); err != nil {
		t.Fatal(err)
	}
	mapped, err := graph.MapSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mapped.Close() })
	return []residency{{"heap", g}, {"mapped", mapped}}
}

// checkInts fails the test at the first vertex where got differs from want.
func checkInts(t *testing.T, at string, g *graph.Graph, got, want []int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", at, len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("%s: vertex %d has %d, the oracle %d", at, g.VertexID(int32(v)), got[v], want[v])
		}
	}
}

// FuzzBFSMatchesOracle holds the direction-optimizing ParBFS to RefBFS
// from vertex 0, at one, three and eight workers, on the heap graph and
// on its mapped snapshot; and Kernels.BFS, at one and three workers, on
// three and eight machines (rangeRuntime), where each machine runs its
// part of a level. The seed corpus in
// testdata/fuzz/FuzzBFSMatchesOracle holds stars, whose first level runs
// bottom-up; a long path beside an unreachable cycle, whose one-vertex
// frontiers never leave top-down; two components with the larger away
// from vertex 0; a directed graph whose giant component is joined only
// by in-arcs; and isolated vertices.
func FuzzBFSMatchesOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, r := range fuzzResidencies(t, data) {
			src, _ := r.g.Index(0)
			want := algorithms.RefBFS(r.g, src)
			for _, workers := range []int{1, 3, 8} {
				checkInts(t, fmt.Sprintf("%s ParBFS workers=%d", r.name, workers), r.g, algorithms.ParBFS(r.g, src, workers), want)
			}
			for _, workers := range []int{1, 3} {
				for _, machines := range []int{3, 8} {
					rt := &rangeRuntime{n: r.g.NumVertices(), machines: machines, workers: workers}
					got, err := new(algorithms.Kernels).BFS(rt, r.g, src)
					if err != nil {
						t.Fatal(err)
					}
					checkInts(t, fmt.Sprintf("%s BFS workers=%d machines=%d", r.name, workers, machines), r.g, got, want)
				}
			}
		}
	})
}

// FuzzWCCMatchesOracle holds the sampled (Afforest) ParWCC to RefWCC at
// one, three and eight workers, on the heap graph and on its mapped
// snapshot, over the same seed shapes as FuzzBFSMatchesOracle: the
// directed seed fails unless the finishing pass unites in-arcs, and the
// two-component seed puts the sampled giant tree away from vertex 0.
func FuzzWCCMatchesOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, r := range fuzzResidencies(t, data) {
			want := algorithms.RefWCC(r.g)
			for _, workers := range []int{1, 3, 8} {
				checkInts(t, fmt.Sprintf("%s ParWCC workers=%d", r.name, workers), r.g, algorithms.ParWCC(r.g, workers), want)
			}
		}
	})
}
