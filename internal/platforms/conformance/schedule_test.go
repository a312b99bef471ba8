package conformance_test

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/graph"
	"graphalytics/internal/graph500"
	"graphalytics/internal/par"
	"graphalytics/internal/platform"
	"graphalytics/internal/platforms"
	"graphalytics/internal/platforms/conformance"
)

// scheduleCorpus is two scale-11 weighted Graph500 graphs, undirected and
// directed: large enough that the engine driver lets a region's chunks run
// on several host goroutines, which the corpus graphs are too small for.
func scheduleCorpus(t *testing.T) []conformance.Case {
	t.Helper()
	var cases []conformance.Case
	for _, directed := range []bool{false, true} {
		g, err := graph500.Generate(graph500.Config{Scale: 11, Seed: 29, Weighted: true, Directed: directed})
		if err != nil {
			t.Fatal(err)
		}
		src := int32(0)
		for v := int32(1); int(v) < g.NumVertices(); v++ {
			if g.OutDegree(v) > g.OutDegree(src) {
				src = v
			}
		}
		cases = append(cases, conformance.Case{
			Name:   g.Name(),
			Graph:  g,
			Params: algorithms.Params{Source: g.VertexID(src), Iterations: 10},
		})
	}
	return cases
}

// concurrentConfigs are the multi-threaded configurations: four threads on
// one machine, and two threads on each of three machines for the
// distributed engines.
func concurrentConfigs(p platform.Platform) []conformance.Config {
	cfgs := []conformance.Config{{Threads: 4, Machines: 1}}
	if p.Distributed() {
		cfgs = append(cfgs, conformance.Config{Threads: 2, Machines: 3})
	}
	return cfgs
}

// TestEnginesAreScheduleIndependent runs every engine × supported
// algorithm with the simulated threads' chunks inline (GOMAXPROCS 1) and
// then twice on up to four host goroutines: the rounds, traffic, modeled
// network time, peak memory and output CRC must not depend on how the
// chunks interleave. Under -race it also checks the chunk bodies for
// unsynchronized sharing.
func TestEnginesAreScheduleIndependent(t *testing.T) {
	platforms.RegisterAll()
	corpus := scheduleCorpus(t)
	run := func(procs int) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		for _, c := range corpus {
			if w := par.Workers(c.Graph.NumVertices() + int(c.Graph.NumEdges())); procs > 1 && w < 2 {
				t.Fatalf("%s: par.Workers = %d at GOMAXPROCS %d: every region would run inline", c.Name, w, procs)
			}
		}
		return fingerprint(t, corpus, concurrentConfigs)
	}
	inline := run(1)
	for pass := 1; pass <= 2; pass++ {
		if got := run(4); got != inline {
			t.Errorf("pass %d at GOMAXPROCS 4 differs from GOMAXPROCS 1:\n%s", pass, lineDiff(inline, got))
		}
	}
}

// TestSSSPRoundsDoNotDependOnTheDeployment runs SSSP on the engines that
// charge one round per Bellman-Ford phase, over the corpus and the
// schedule corpus, in every conformance configuration at GOMAXPROCS 4.
// Each round relaxes from the distances it began with, so the round count
// is fixed by the graph and the source: the same on every deployment and
// on every one of these engines.
func TestSSSPRoundsDoNotDependOnTheDeployment(t *testing.T) {
	platforms.RegisterAll()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ctx := context.Background()
	for _, c := range append(conformance.Corpus(), scheduleCorpus(t)...) {
		want, wantAt := -1, ""
		for _, name := range []string{"spmv-d", "pushpull", "gas"} {
			p, err := platform.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range conformance.Configs(p) {
				at := fmt.Sprintf("%s t%d-m%d", name, cfg.Threads, cfg.Machines)
				up, err := p.UploadContext(ctx, c.Graph, platform.RunConfig{Threads: cfg.Threads, Machines: cfg.Machines})
				if err != nil {
					t.Fatalf("%s: upload %s: %v", at, c.Name, err)
				}
				res, err := p.Execute(ctx, up, algorithms.SSSP, c.Params)
				up.Free()
				if err != nil {
					t.Fatalf("%s: SSSP on %s: %v", at, c.Name, err)
				}
				if want < 0 {
					want, wantAt = res.Rounds, at
				} else if res.Rounds != want {
					t.Errorf("%s: SSSP took %d rounds on %s, %s took %d", at, res.Rounds, c.Name, wantAt, want)
				}
			}
		}
	}
}

// TestNativeMatchesOracleBitForBit holds the native engine to the
// sequential oracles (Ref*), not to RunReference: native runs the same
// round loops as the parallel reference kernels, so comparing the two
// would check the loops against themselves. Every algorithm, on the corpus
// and the schedule corpus, at 1, 3 and 8 threads with chunks running
// concurrently, must reproduce the oracle exactly, floats bit for bit.
func TestNativeMatchesOracleBitForBit(t *testing.T) {
	platforms.RegisterAll()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	p, err := platform.Get("native")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, c := range append(conformance.Corpus(), scheduleCorpus(t)...) {
		for _, threads := range []int{1, 3, 8} {
			up, err := p.UploadContext(ctx, c.Graph, platform.RunConfig{Threads: threads, Machines: 1})
			if err != nil {
				t.Fatalf("upload %s: %v", c.Name, err)
			}
			for _, a := range algorithms.All {
				at := fmt.Sprintf("%s (directed=%v) %s t%d", c.Name, c.Graph.Directed(), a, threads)
				res, err := p.Execute(ctx, up, a, c.Params)
				if err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				want := oracle(t, c, a)
				if !sameBits(res.Output, want) {
					t.Errorf("%s: output differs from the sequential oracle", at)
				}
			}
			up.Free()
		}
	}
}

// TestRangeEnginesMatchOracleBitForBit holds spmv and pushpull BFS,
// PageRank, WCC, CDLP and SSSP, spmv's LCC, and gas BFS, WCC, CDLP, LCC
// and SSSP, to the sequential oracles, floats bit for bit, on one machine, on three,
// and on eight — more machines than directed-small has vertices, so some
// own empty ranges. PageRank folds the dangling mass from one ascending
// list through the oracle's block tree and every per-vertex sum follows
// adjacency order; on the corpus that tree is one block, so a graph of
// three blocks, whose machine ranges do not line up with them, checks
// that the fold every machine replicates crosses block boundaries. All
// five are reference kernels on the cluster runtime, its machines
// running their ranges in turn within a round: a pushpull machine must
// not pull a contribution only a later machine would compute, a
// frontier stamp an earlier machine leaves for the next CDLP round must
// not hide a vertex a later machine still has to fold in this one, and
// every BFS and SSSP frontier vertex must be expanded by exactly the
// machine that owns it. gas runs its own loops over a vertex-cut, every
// machine expanding the whole frontier against its share of the arcs;
// its PageRank adds per-machine partial sums, so its ranks are validated
// within epsilon and stay out of this test. An LCC numerator is an exact
// count of arcs, however the threads' marks split the vertices, and the
// quotient is the oracle's expression.
func TestRangeEnginesMatchOracleBitForBit(t *testing.T) {
	platforms.RegisterAll()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ctx := context.Background()
	rangeAlgos := []algorithms.Algorithm{algorithms.BFS, algorithms.PR, algorithms.WCC, algorithms.CDLP, algorithms.SSSP}
	gasAlgos := []algorithms.Algorithm{algorithms.BFS, algorithms.WCC, algorithms.CDLP, algorithms.LCC, algorithms.SSSP}
	deployments := []struct {
		name     string
		machines int
		algos    []algorithms.Algorithm
	}{
		{"spmv-s", 1, algorithms.All}, {"spmv-d", 1, algorithms.All}, {"spmv-d", 3, algorithms.All}, {"spmv-d", 8, algorithms.All},
		{"pushpull", 1, rangeAlgos}, {"pushpull", 3, rangeAlgos}, {"pushpull", 8, rangeAlgos},
		{"gas", 1, gasAlgos}, {"gas", 3, gasAlgos}, {"gas", 8, gasAlgos},
	}
	for _, c := range append(conformance.Corpus(), append(scheduleCorpus(t), blocksCase(t))...) {
		for _, a := range algorithms.All {
			if a == algorithms.SSSP && !c.Graph.Weighted() {
				continue
			}
			want := oracle(t, c, a)
			for _, d := range deployments {
				p, err := platform.Get(d.name)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Contains(d.algos, a) || !p.Supports(a) {
					continue // spmv-s has no SSSP
				}
				for _, threads := range []int{1, 3, 8} {
					at := fmt.Sprintf("%s %s %s t%d-m%d", d.name, c.Name, a, threads, d.machines)
					up, err := p.UploadContext(ctx, c.Graph, platform.RunConfig{Threads: threads, Machines: d.machines})
					if err != nil {
						t.Fatalf("%s: upload: %v", at, err)
					}
					res, err := p.Execute(ctx, up, a, c.Params)
					up.Free()
					if err != nil {
						t.Fatalf("%s: %v", at, err)
					}
					if !sameBits(res.Output, want) {
						t.Errorf("%s: output differs from the sequential oracle", at)
					}
				}
			}
		}
	}
}

// blocksCase is a directed graph of two and a half par.SumBlock blocks of
// vertices, every third one dangling.
func blocksCase(t *testing.T) conformance.Case {
	t.Helper()
	n := 2*par.SumBlock + 1500
	b := graph.NewBuilder(true, false)
	b.SetName("three-blocks")
	b.SetOptions(graph.BuildOptions{DedupEdges: true})
	for v := 0; v < n; v++ {
		b.AddVertex(int64(v))
	}
	for v := 0; v < n; v++ {
		if v%3 != 0 {
			b.AddEdge(int64(v), int64((7*v+1)%n))
			b.AddEdge(int64(v), int64((13*v+5)%n))
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return conformance.Case{Name: g.Name(), Graph: g, Params: algorithms.Params{Iterations: 10}}
}

// oracle is the sequential oracle's output for algorithm a on case c.
func oracle(t *testing.T, c conformance.Case, a algorithms.Algorithm) *algorithms.Output {
	t.Helper()
	j, err := algorithms.Resolve(c.Graph, a, c.Params)
	if err != nil {
		t.Fatal(err)
	}
	g := c.Graph
	switch a {
	case algorithms.BFS:
		return &algorithms.Output{Int: algorithms.RefBFS(g, j.SourceIndex)}
	case algorithms.PR:
		return &algorithms.Output{Float: algorithms.RefPageRank(g, j.Iterations, j.Damping)}
	case algorithms.WCC:
		return &algorithms.Output{Int: algorithms.RefWCC(g)}
	case algorithms.CDLP:
		return &algorithms.Output{Int: algorithms.RefCDLP(g, j.Iterations)}
	case algorithms.LCC:
		return &algorithms.Output{Float: algorithms.RefLCC(g)}
	default:
		return &algorithms.Output{Float: algorithms.RefSSSP(g, j.SourceIndex)}
	}
}

// sameBits reports whether two outputs hold the same values, floats
// compared by their bits.
func sameBits(a, b *algorithms.Output) bool {
	return slices.Equal(a.Int, b.Int) && slices.Equal(floatBits(a.Float), floatBits(b.Float))
}

func floatBits(fs []float64) []uint64 {
	out := make([]uint64, len(fs))
	for i, f := range fs {
		out[i] = math.Float64bits(f)
	}
	return out
}
