package algorithms

import (
	"fmt"
	"slices"
	"testing"

	"graphalytics/internal/graph"
	"graphalytics/internal/graph500"
)

// levelCounter counts the rounds a kernel runs on the runtime it wraps
// and the Collect regions over all n vertices: a BFS level is one round,
// and on a graph of more than one vertex only a bottom-up level collects
// over all of them (a top-down level collects over its frontier, which
// never holds the source again).
type levelCounter struct {
	roundCounter
	n, bottomUp int
}

func (r *levelCounter) Collect(n int, dst []int32, fn func(worker, lo, hi int, out []int32) []int32) []int32 {
	if n == r.n {
		r.bottomUp++
	}
	return r.Runtime.Collect(n, dst, fn)
}

// traversalGraphs returns the Graph500 scale-12 graphs, directed and
// undirected, the traversal tests run on.
func traversalGraphs(t *testing.T) []*graph.Graph {
	t.Helper()
	var gs []*graph.Graph
	for _, directed := range []bool{true, false} {
		g, err := graph500.Generate(graph500.Config{Scale: 12, Seed: 7, Directed: directed})
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, g)
	}
	return gs
}

// TestBFSRunsBottomUpLevels checks that the direction-optimizing BFS does
// switch on a power-law graph, from its highest-degree vertex, and that
// switching keeps one round per level: RefBFS's largest depth plus one
// (the last round finds nothing). The depths must be RefBFS's.
func TestBFSRunsBottomUpLevels(t *testing.T) {
	for _, g := range traversalGraphs(t) {
		var source int32
		for v := int32(1); int(v) < g.NumVertices(); v++ {
			if g.OutDegree(v) > g.OutDegree(source) {
				source = v
			}
		}
		want := RefBFS(g, source)
		levels := 1
		for _, d := range want {
			if d != Unreachable {
				levels = max(levels, 1+int(d))
			}
		}
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("directed=%v/workers=%d", g.Directed(), workers), func(t *testing.T) {
				rt := &levelCounter{roundCounter: roundCounter{Runtime: newParRuntime(g, workers)}, n: g.NumVertices()}
				got, err := new(Kernels).BFS(rt, g, source)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Fatal("depths differ from RefBFS")
				}
				if rt.rounds != levels {
					t.Fatalf("BFS ran %d rounds, want %d: one per level of RefBFS and a last empty one", rt.rounds, levels)
				}
				if rt.bottomUp == 0 {
					t.Fatalf("none of the %d levels ran bottom-up", rt.rounds)
				}
			})
		}
	}
}

// TestWCCSampleSkipsTheGiantTree checks Afforest's sampling on power-law
// graphs: the tree the sample elects lies in the largest component and
// holds at least half of it, so the finishing pass (wccFinishRange, which
// skips every vertex whose parent is the elected root) leaves at least
// half the giant component's arcs untouched. The labels must be RefWCC's.
func TestWCCSampleSkipsTheGiantTree(t *testing.T) {
	for _, g := range traversalGraphs(t) {
		want := RefWCC(g)
		sizes := make(map[int64]int)
		for _, label := range want {
			sizes[label]++
		}
		var giantLabel int64
		for label, size := range sizes {
			if size > sizes[giantLabel] || (size == sizes[giantLabel] && label < giantLabel) {
				giantLabel = label
			}
		}
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("directed=%v/workers=%d", g.Directed(), workers), func(t *testing.T) {
				rt := newParRuntime(g, workers)
				parent := make([]int32, g.NumVertices())
				for v := range parent {
					parent[v] = int32(v)
				}
				var giant int32
				if err := rt.Round(func() { giant = wccSample(rt, g, parent) }); err != nil {
					t.Fatal(err)
				}
				if want[giant] != giantLabel {
					t.Fatalf("the sample elected a tree of component %d, not the largest component %d", want[giant], giantLabel)
				}
				skipped := 0
				for _, p := range parent {
					if p == giant {
						skipped++
					}
				}
				if 2*skipped < sizes[giantLabel] {
					t.Fatalf("the finishing pass skips %d vertices, under half the giant component's %d", skipped, sizes[giantLabel])
				}
				if got := ParWCC(g, workers); !slices.Equal(got, want) {
					t.Fatal("labels differ from RefWCC")
				}
			})
		}
	}
}
