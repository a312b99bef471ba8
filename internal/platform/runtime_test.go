package platform_test

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/cluster"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
)

// TestRunSpansMachines drives the cluster runtime directly. In every
// round of a three-round kernel, on one to three machines at 1, 3 and 8
// threads: the owned ranges cover [0, n) exactly once, a pass over a
// machine's range splits into min(threads, owned) chunks, the traffic hook
// sees every machine once, and each round is one charged cluster round.
func TestRunSpansMachines(t *testing.T) {
	const n, rounds = 20, 3
	edges := make([]graph.Edge, 0, n)
	for v := int64(1); v < n; v++ {
		edges = append(edges, graph.Edge{Src: 0, Dst: v}) // a hub skews the edge-balanced ranges
	}
	g, err := graph.FromEdges("star", true, false, edges, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, machines := range []int{1, 2, 3} {
		for _, threads := range []int{1, 3, 8} {
			at := fmt.Sprintf("t%d-m%d", threads, machines)
			cl := cluster.New(cluster.Config{Machines: machines, Threads: threads, HostWorkers: 4}.Normalize())
			part := cluster.PartitionVerticesRange(g, machines)
			owned := part.Range
			var (
				covered  [n]int
				reported []int
			)
			hook := func(mach, updates int, _ []int32) {
				reported = append(reported, mach)
				if lo, hi := owned(mach); updates != hi-lo {
					t.Errorf("%s: machine %d reported %d updates, owns %d vertices", at, mach, updates, hi-lo)
				}
			}
			_, err := platform.Run(context.Background(), &platform.BaseUpload{G: g, Cl: cl}, owned, hook,
				func(_ *algorithms.Kernels, rt algorithms.Runtime) (struct{}, error) {
					for range rounds {
						covered, reported = [n]int{}, reported[:0]
						if err := rt.Round(func() {
							lo, hi := rt.Owned()
							var chunks atomic.Int32
							rt.Chunks(hi-lo, func(w, clo, chi int) {
								chunks.Add(1)
								for v := lo + clo; v < lo+chi; v++ {
									covered[v]++ // chunks of one pass write disjoint slots
								}
							})
							if want := min(threads, hi-lo); int(chunks.Load()) != want {
								t.Errorf("%s: a pass over %d owned vertices ran %d chunks, want %d", at, hi-lo, chunks.Load(), want)
							}
							rt.Report(hi-lo, nil)
						}); err != nil {
							return struct{}{}, err
						}
						for v, c := range covered {
							if c != 1 {
								t.Errorf("%s: vertex %d owned %d times in a round", at, v, c)
							}
						}
						if len(reported) != machines {
							t.Errorf("%s: hook saw machines %v in a round, want each of %d once", at, reported, machines)
						}
						for m, got := range reported {
							if got != m {
								t.Errorf("%s: hook saw machines %v in a round, want 0..%d in order", at, reported, machines-1)
								break
							}
						}
					}
					return struct{}{}, nil
				})
			if err != nil {
				t.Fatalf("%s: %v", at, err)
			}
			if cl.Rounds() != rounds {
				t.Errorf("%s: %d cluster rounds, want %d", at, cl.Rounds(), rounds)
			}
		}
	}
}
