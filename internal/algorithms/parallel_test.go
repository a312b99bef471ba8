package algorithms_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/graph"
	"graphalytics/internal/par"
)

// kernelGraph builds a random graph big enough to split into many chunks,
// with hubs, dangling vertices and isolated vertices in the mix.
func kernelGraph(t testing.TB, seed int64, directed, weighted bool) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const n, m = 2500, 12000
	b := graph.NewBuilder(directed, weighted)
	b.SetOptions(graph.BuildOptions{DedupEdges: true, DropSelfLoops: true})
	for i := 0; i < n; i++ {
		b.AddVertex(int64(i) * 7) // sparse external IDs
	}
	for i := 0; i < m; i++ {
		src := rng.Intn(n)
		if rng.Intn(4) == 0 {
			src = rng.Intn(n / 50) // hub bias
		}
		b.AddWeightedEdge(int64(src)*7, int64(rng.Intn(n))*7, rng.Float64()+0.01)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestParallelKernelsMatchOracleBitForBit is the determinism contract of
// the parallel reference kernels: at every worker count and GOMAXPROCS
// setting, on directed and undirected graphs, each parallel kernel must
// reproduce its sequential oracle exactly — including the float kernels,
// which are compared bit for bit, not within epsilon. Run under -race this
// also exercises the kernels' concurrent claims and reductions.
func TestParallelKernelsMatchOracleBitForBit(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			for _, directed := range []bool{true, false} {
				g := kernelGraph(t, 0xbeef+int64(procs), directed, false)
				wg := kernelGraph(t, 0xd15c+int64(procs), directed, true)
				src, ok := g.Index(7)
				if !ok {
					t.Fatal("source vertex missing")
				}
				wsrc, ok := wg.Index(7)
				if !ok {
					t.Fatal("weighted source vertex missing")
				}
				wantBFS := algorithms.RefBFS(g, src)
				wantPR := algorithms.RefPageRank(g, 10, 0.85)
				wantWCC := algorithms.RefWCC(g)
				wantCDLP := algorithms.RefCDLP(g, 5)
				wantLCC := algorithms.RefLCC(g)
				wantSSSP := algorithms.RefSSSP(wg, wsrc)
				// workers=0 exercises automatic sizing under the current
				// GOMAXPROCS; the explicit counts pin chunk geometries.
				for _, workers := range []int{0, 1, 2, 8} {
					name := fmt.Sprintf("directed=%v/workers=%d", directed, workers)
					if got := algorithms.ParBFS(g, src, workers); !slices.Equal(got, wantBFS) {
						t.Errorf("%s: ParBFS differs from RefBFS", name)
					}
					if got := algorithms.ParPageRank(g, 10, 0.85, workers); !slices.Equal(got, wantPR) {
						t.Errorf("%s: ParPageRank not bit-identical to RefPageRank", name)
					}
					if got := algorithms.ParWCC(g, workers); !slices.Equal(got, wantWCC) {
						t.Errorf("%s: ParWCC differs from RefWCC", name)
					}
					if got := algorithms.ParCDLP(g, 5, workers); !slices.Equal(got, wantCDLP) {
						t.Errorf("%s: ParCDLP differs from RefCDLP", name)
					}
					if got := algorithms.ParLCC(g, workers); !slices.Equal(got, wantLCC) {
						t.Errorf("%s: ParLCC not bit-identical to RefLCC", name)
					}
					if got := algorithms.ParSSSP(wg, wsrc, workers); !slices.Equal(got, wantSSSP) {
						t.Errorf("%s: ParSSSP not bit-identical to RefSSSP", name)
					}
				}
			}
		})
	}
}

// TestPageRankSpansMachines holds both PageRank forms on a runtime of
// one, three and 32 machines (rangeRuntime), at one and three workers, to
// RefPageRank bit for bit. The graph spans three par.SumBlock blocks and
// a third of its vertices have no out-edges when directed, so the
// dangling fold crosses block boundaries the machines' ranges do not line
// up with; seven iterations end on the pooled array.
func TestPageRankSpansMachines(t *testing.T) {
	n := 3*par.SumBlock + 100
	for _, directed := range []bool{true, false} {
		b := graph.NewBuilder(directed, false)
		b.SetOptions(graph.BuildOptions{DedupEdges: true, DropSelfLoops: true})
		state := uint64(5)
		for v := range n {
			b.AddVertex(int64(v))
			if v%3 == 0 {
				continue // a sink
			}
			for range 3 {
				state = state*6364136223846793005 + 1442695040888963407
				b.AddEdge(int64(v), int64(state>>33)%int64(n))
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		want := algorithms.RefPageRank(g, 7, 0.85)
		for _, machines := range []int{1, 3, 32} {
			for _, workers := range []int{1, 3} {
				k := new(algorithms.Kernels)
				for name, run := range map[string]func(algorithms.Runtime, *graph.Graph, int, float64) ([]float64, error){
					"PageRank":            k.PageRank,
					"ApplyGatherPageRank": k.ApplyGatherPageRank,
				} {
					rt := &rangeRuntime{n: g.NumVertices(), machines: machines, workers: workers}
					got, err := run(rt, g, 7, 0.85)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, want) {
						t.Errorf("directed=%v machines=%d workers=%d: %s not bit-identical to RefPageRank", directed, machines, workers, name)
					}
				}
			}
		}
	}
}

// TestRunReferenceWorkersMatchesSequential pins the dispatch path the
// session's reference cache uses: RunReferenceWorkers at any pinned count
// must equal RunReference's automatic sizing for all six algorithms.
func TestRunReferenceWorkersMatchesSequential(t *testing.T) {
	g := kernelGraph(t, 0x5eed, true, true)
	params := algorithms.Params{Source: 7, Iterations: 5}
	for _, a := range algorithms.All {
		auto, err := algorithms.RunReference(g, a, params)
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		for _, workers := range []int{1, 3} {
			pinned, err := algorithms.RunReferenceWorkers(g, a, params, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", a, workers, err)
			}
			if !slices.Equal(auto.Int, pinned.Int) || !slices.Equal(auto.Float, pinned.Float) {
				t.Errorf("%s: workers=%d output differs from automatic sizing", a, workers)
			}
		}
	}
}

// TestParSSSPDisconnected checks that vertices outside the source's
// component keep +Inf on the delta-stepping path at every worker count —
// they must never enter a bucket, not even the overflow one.
func TestParSSSPDisconnected(t *testing.T) {
	b := graph.NewBuilder(true, true)
	b.AddVertex(99) // isolated
	b.AddWeightedEdge(1, 2, 0.5)
	b.AddWeightedEdge(2, 3, 1.25)
	b.AddWeightedEdge(60, 70, 2.0) // separate component
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	src, _ := g.Index(1)
	want := algorithms.RefSSSP(g, src)
	for _, workers := range []int{1, 2, 8} {
		got := algorithms.ParSSSP(g, src, workers)
		if !slices.Equal(got, want) {
			t.Errorf("workers=%d: ParSSSP differs from RefSSSP", workers)
		}
		for _, id := range []int64{99, 60, 70} {
			ix, _ := g.Index(id)
			if !math.IsInf(got[ix], 1) {
				t.Errorf("workers=%d: vertex %d distance = %v, want +Inf", workers, id, got[ix])
			}
		}
	}
}

// TestParSSSPZeroAndTiedWeights covers the degenerate weight cases:
// zero-weight edges (an improvement by 0 is not an improvement, so they
// cannot cycle), repeated weight values, and tied alternative paths whose
// equal totals make the relaxation order visible if the kernel ever broke
// from the fixpoint argument. Both orientations of a directed pair are
// distinct edges and must both relax.
func TestParSSSPZeroAndTiedWeights(t *testing.T) {
	for _, directed := range []bool{true, false} {
		b := graph.NewBuilder(directed, true)
		b.AddWeightedEdge(1, 2, 0)
		b.AddWeightedEdge(2, 3, 0)
		b.AddWeightedEdge(1, 3, 0) // tie with the 1->2->3 chain
		b.AddWeightedEdge(3, 4, 1.5)
		b.AddWeightedEdge(1, 4, 1.5) // tie again, repeated weight value
		b.AddWeightedEdge(4, 5, 0.25)
		if directed {
			b.AddWeightedEdge(5, 1, 0.25) // back edge closing a cycle
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		src, _ := g.Index(1)
		want := algorithms.RefSSSP(g, src)
		for _, workers := range []int{1, 2, 8} {
			if got := algorithms.ParSSSP(g, src, workers); !slices.Equal(got, want) {
				t.Errorf("directed=%v workers=%d: ParSSSP differs from RefSSSP", directed, workers)
			}
		}
	}
}

// TestParCDLPOscillation pins the frontier kernel on a non-converging
// input: in a two-vertex component the labels swap every round, so the
// frontier never empties and the iteration cap is what stops the job. The
// result depends on the parity of the cap, which makes any miscounted or
// skipped round visible.
func TestParCDLPOscillation(t *testing.T) {
	b := graph.NewBuilder(false, false)
	b.AddEdge(10, 20) // oscillating pair
	b.AddEdge(30, 40) // second pair, converges the same way
	b.AddEdge(40, 50)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, iterations := range []int{1, 2, 5, 6} {
		want := algorithms.RefCDLP(g, iterations)
		for _, workers := range []int{1, 2, 8} {
			if got := algorithms.ParCDLP(g, iterations, workers); !slices.Equal(got, want) {
				t.Errorf("iterations=%d workers=%d: ParCDLP differs from RefCDLP", iterations, workers)
			}
		}
		a, _ := g.Index(10)
		bb, _ := g.Index(20)
		if want[a] == 10 != (iterations%2 == 0) {
			t.Errorf("iterations=%d: pair label %d/%d does not alternate with the cap's parity",
				iterations, want[a], want[bb])
		}
	}
}

// TestParBFSUnreachable checks that vertices outside the reachable set
// keep the Unreachable marker on the parallel path.
func TestParBFSUnreachable(t *testing.T) {
	b := graph.NewBuilder(true, false)
	b.AddVertex(99) // isolated
	b.AddEdge(1, 2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	src, _ := g.Index(1)
	depth := algorithms.ParBFS(g, src, 4)
	iso, _ := g.Index(99)
	if depth[iso] != algorithms.Unreachable {
		t.Fatalf("isolated vertex depth = %d, want Unreachable", depth[iso])
	}
}
