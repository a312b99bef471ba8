// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section 4). Each benchmark runs the corresponding experiment
// suite through the harness and prints the report rows. Run with:
//
//	go test -bench=. -benchmem
package graphalytics_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"graphalytics"
	"graphalytics/internal/algorithms"
	"graphalytics/internal/graph"
	"graphalytics/internal/graph500"
	"graphalytics/internal/graphstore"
	"graphalytics/internal/platform"
	"graphalytics/internal/platforms/pregel"
	"graphalytics/internal/platforms/pushpull"
	"graphalytics/internal/workload"
)

// benchSLA bounds every benchmark job; the paper's one-hour SLA scales to
// a minute on the reproduction's 10^4-times smaller datasets.
const benchSLA = time.Minute

// benchThreads is the default per-machine thread budget in experiments
// that do not sweep threads.
const benchThreads = 4

// newBenchSession returns a sequential session (timing fidelity over
// sweep throughput) under the benchmark SLA.
func newBenchSession(opts ...graphalytics.Option) *graphalytics.Session {
	return graphalytics.NewSession(append([]graphalytics.Option{
		graphalytics.WithSLA(benchSLA), graphalytics.WithParallelism(1),
	}, opts...)...)
}

// runExperiment regenerates one paper artifact on s.
func runExperiment(b *testing.B, s *graphalytics.Session, id string, cfg graphalytics.ExperimentConfig) *graphalytics.Report {
	b.Helper()
	rep, err := s.RunExperiment(context.Background(), id, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

var printed sync.Map

// printReport renders a report once per benchmark, regardless of b.N.
func printReport(rep *graphalytics.Report) {
	if _, dup := printed.LoadOrStore(rep.ID+rep.Title, true); dup {
		return
	}
	rep.Render(os.Stdout)
}

// BenchmarkTable3RealDatasets regenerates Table 3: the real-world dataset
// stand-ins with their recomputed sizes, scales and classes.
func BenchmarkTable3RealDatasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := &graphalytics.Report{
			ID:      "table3",
			Title:   "Real-world datasets (reproduction stand-ins)",
			Columns: []string{"ID", "name", "|V|", "|E|", "scale", "class", "domain", "paper scale"},
		}
		for _, d := range graphalytics.Datasets() {
			if d.Domain == "Synthetic" {
				continue
			}
			g, err := graphalytics.LoadDataset(d.ID)
			if err != nil {
				b.Fatal(err)
			}
			rep.Rows = append(rep.Rows, []string{
				d.ID, g.Name(), fmt.Sprint(g.NumVertices()), fmt.Sprint(g.NumEdges()),
				fmt.Sprintf("%.1f", graphalytics.GraphScale(g)), graphalytics.DatasetClass(g),
				d.Domain, fmt.Sprintf("%.1f", d.PaperScale),
			})
		}
		printReport(rep)
	}
}

// BenchmarkTable4SyntheticDatasets regenerates Table 4: the Datagen and
// Graph500 datasets.
func BenchmarkTable4SyntheticDatasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := &graphalytics.Report{
			ID:      "table4",
			Title:   "Synthetic datasets (reproduction scale)",
			Columns: []string{"ID", "name", "|V|", "|E|", "scale", "class", "paper scale"},
		}
		for _, d := range graphalytics.Datasets() {
			if d.Domain != "Synthetic" {
				continue
			}
			g, err := graphalytics.LoadDataset(d.ID)
			if err != nil {
				b.Fatal(err)
			}
			rep.Rows = append(rep.Rows, []string{
				d.ID, g.Name(), fmt.Sprint(g.NumVertices()), fmt.Sprint(g.NumEdges()),
				fmt.Sprintf("%.1f", graphalytics.GraphScale(g)), graphalytics.DatasetClass(g),
				fmt.Sprintf("%.1f", d.PaperScale),
			})
		}
		printReport(rep)
	}
}

// BenchmarkFig4DatasetVariety regenerates Figure 4: Tproc of BFS and PR on
// every dataset up to class L, single machine, all platforms.
func BenchmarkFig4DatasetVariety(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newBenchSession()
		printReport(runExperiment(b, s, "fig4", graphalytics.ExperimentConfig{Platforms: graphalytics.SingleMachinePlatforms(), Threads: benchThreads}))
	}
}

// BenchmarkFig5Throughput regenerates Figure 5: EPS and EVPS for BFS, the
// second renderer over the dataset-variety matrix.
func BenchmarkFig5Throughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newBenchSession()
		printReport(runExperiment(b, s, "fig5", graphalytics.ExperimentConfig{Platforms: graphalytics.SingleMachinePlatforms(), Threads: benchThreads}))
	}
}

// BenchmarkTable8Makespan regenerates Table 8: Tproc versus makespan for
// BFS on D300.
func BenchmarkTable8Makespan(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newBenchSession()
		printReport(runExperiment(b, s, "table8", graphalytics.ExperimentConfig{Platforms: graphalytics.SingleMachinePlatforms(), Threads: benchThreads}))
	}
}

// BenchmarkFig6AlgorithmVariety regenerates Figure 6: all six algorithms
// on R4(S) and D300(L).
func BenchmarkFig6AlgorithmVariety(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newBenchSession()
		printReport(runExperiment(b, s, "fig6", graphalytics.ExperimentConfig{Platforms: graphalytics.SingleMachinePlatforms(), Threads: benchThreads}))
	}
}

// BenchmarkFig7VerticalScalability regenerates Figure 7 (Tproc vs.
// threads, 1..32) and Table 9 (maximum speedup) in one sweep.
func BenchmarkFig7VerticalScalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newBenchSession()
		spec, results, err := s.RunMatrix(context.Background(), "fig7", graphalytics.ExperimentConfig{Platforms: graphalytics.SingleMachinePlatforms(), ThreadSweep: []int{1, 2, 4, 8, 16, 32}})
		if err != nil {
			b.Fatal(err)
		}
		for _, id := range []string{"fig7", "table9"} {
			exp, _ := graphalytics.ExperimentByID(id)
			printReport(exp.Render(spec, results))
		}
	}
}

// BenchmarkTable9VerticalSpeedup regenerates Table 9 alone with a reduced
// thread sweep, for quick runs.
func BenchmarkTable9VerticalSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newBenchSession()
		rep := runExperiment(b, s, "table9", graphalytics.ExperimentConfig{Platforms: graphalytics.SingleMachinePlatforms(), ThreadSweep: []int{1, 8}})
		rep.Title += " (reduced sweep: 1 vs 8 threads)"
		printReport(rep)
	}
}

// BenchmarkFig8StrongScaling regenerates Figure 8: Tproc vs. machines on
// D1000(XL) for the distributed platforms.
func BenchmarkFig8StrongScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newBenchSession()
		printReport(runExperiment(b, s, "fig8", graphalytics.ExperimentConfig{Platforms: graphalytics.DistributedPlatforms(), MachineSweep: []int{1, 2, 4, 8, 16}, Threads: 2}))
	}
}

// BenchmarkFig9WeakScaling regenerates Figure 9: the Graph500 series with
// machine counts growing in step with dataset size.
func BenchmarkFig9WeakScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newBenchSession()
		printReport(runExperiment(b, s, "fig9", graphalytics.ExperimentConfig{Platforms: graphalytics.DistributedPlatforms(), WeakPairs: graphalytics.DefaultWeakPairs(), Threads: 2}))
	}
}

// BenchmarkTable10StressTest regenerates Table 10: the smallest dataset
// each platform fails to process under a per-machine memory budget.
func BenchmarkTable10StressTest(b *testing.B) {
	const budget = 2 << 20 // 2 MiB per simulated machine at 1/10^4 dataset scale
	for i := 0; i < b.N; i++ {
		s := newBenchSession(graphalytics.WithValidation(false)) // failure probing, not correctness
		all := append(graphalytics.SingleMachinePlatforms(), "spmv-d")
		printReport(runExperiment(b, s, "table10", graphalytics.ExperimentConfig{Platforms: all, Threads: benchThreads, MemoryBudget: budget}))
	}
}

// BenchmarkTable11Variability regenerates Table 11: mean and coefficient
// of variation of Tproc over ten BFS runs.
func BenchmarkTable11Variability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newBenchSession()
		printReport(runExperiment(b, s, "table11", graphalytics.ExperimentConfig{
			SingleMachine: graphalytics.SingleMachinePlatforms(), Distributed: graphalytics.DistributedPlatforms(),
			Repetitions: 10, Threads: benchThreads,
		}))
	}
}

// BenchmarkFig10Datagen regenerates Figure 10: Datagen's new execution
// flow against the old one across scale factors, and the new flow's
// worker scalability.
func BenchmarkFig10Datagen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := graphalytics.DataGeneration([]float64{3, 10, 30, 100, 300}, []int{1, 4, 8}, 1000)
		if err != nil {
			b.Fatal(err)
		}
		printReport(rep)
	}
}

// ---- Ablation benchmarks for the design choices listed in DESIGN.md ----

func loadBench(b *testing.B, id string) (*graph.Graph, algorithms.Params) {
	b.Helper()
	d, err := workload.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	g, err := workload.Load(id)
	if err != nil {
		b.Fatal(err)
	}
	return g, d.Params
}

func runOn(b *testing.B, p platform.Platform, g *graph.Graph, a algorithms.Algorithm, params algorithms.Params, threads int) time.Duration {
	b.Helper()
	up, err := p.Upload(g, platform.RunConfig{Threads: threads, Machines: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer up.Free()
	res, err := p.Execute(context.Background(), up, a, params)
	if err != nil {
		b.Fatal(err)
	}
	return res.ProcessingTime
}

// BenchmarkAblationCombiner compares the pregel engine's PageRank with and
// without message combiners: combiners collapse per-edge messages into one
// value per destination, trading merge work for memory and traffic.
func BenchmarkAblationCombiner(b *testing.B) {
	g, params := loadBench(b, "D300")
	for _, mode := range []struct {
		name string
		on   bool
	}{{"combiners-on", true}, {"combiners-off", false}} {
		b.Run(mode.name, func(b *testing.B) {
			e := pregel.NewWithOptions(mode.on)
			for i := 0; i < b.N; i++ {
				runOn(b, e, g, algorithms.PR, params, benchThreads)
			}
		})
	}
}

// BenchmarkAblationDirection compares forced push, forced pull and
// adaptive direction selection for the push-pull engine's BFS.
func BenchmarkAblationDirection(b *testing.B) {
	g, params := loadBench(b, "D300")
	for _, dir := range []string{"", "push", "pull"} {
		name := dir
		if name == "" {
			name = "adaptive"
		}
		b.Run(name, func(b *testing.B) {
			e := pushpull.NewForced(dir)
			for i := 0; i < b.N; i++ {
				runOn(b, e, g, algorithms.BFS, params, benchThreads)
			}
		})
	}
}

// BenchmarkAblationCSR compares the native engine's CSR BFS against a
// straightforward adjacency-map BFS, quantifying why every engine in this
// repository converts to packed arrays during upload.
func BenchmarkAblationCSR(b *testing.B) {
	g, params := loadBench(b, "D300")
	src, _ := g.Index(params.Source)

	b.Run("csr", func(b *testing.B) {
		e, err := platform.Get("native")
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			runOn(b, e, g, algorithms.BFS, params, 1)
		}
	})
	b.Run("adjacency-map", func(b *testing.B) {
		// A map-of-slices graph, the "obvious" representation.
		adj := make(map[int32][]int32, g.NumVertices())
		for v := int32(0); v < int32(g.NumVertices()); v++ {
			adj[v] = append([]int32(nil), g.OutNeighbors(v)...)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			depth := make(map[int32]int64, len(adj))
			depth[src] = 0
			frontier := []int32{src}
			for level := int64(1); len(frontier) > 0; level++ {
				var next []int32
				for _, v := range frontier {
					for _, u := range adj[v] {
						if _, seen := depth[u]; !seen {
							depth[u] = level
							next = append(next, u)
						}
					}
				}
				frontier = next
			}
		}
	})
}

// BenchmarkAblationSparseFrontier compares a sparse frontier-queue BFS
// kernel (SpMSpV-style) against a dense per-level scan over all vertices,
// on a graph the search covers fully (D300) and on one it covers only
// ~10% of (R2). The crossover is the trade-off behind frontier-sparse
// execution and behind the paper's observation that OpenG's queue-based
// BFS wins on R2.
func BenchmarkAblationSparseFrontier(b *testing.B) {
	sparseBFS := func(g *graph.Graph, src int32) {
		depth := make([]int64, g.NumVertices())
		for v := range depth {
			depth[v] = algorithms.Unreachable
		}
		depth[src] = 0
		frontier := []int32{src}
		for level := int64(1); len(frontier) > 0; level++ {
			var next []int32
			for _, v := range frontier {
				for _, u := range g.OutNeighbors(v) {
					if depth[u] == algorithms.Unreachable {
						depth[u] = level
						next = append(next, u)
					}
				}
			}
			frontier = next
		}
	}
	denseBFS := func(g *graph.Graph, src int32) {
		n := g.NumVertices()
		depth := make([]int64, n)
		for v := range depth {
			depth[v] = algorithms.Unreachable
		}
		depth[src] = 0
		for level := int64(1); ; level++ {
			changed := false
			for v := int32(0); v < int32(n); v++ {
				if depth[v] != algorithms.Unreachable {
					continue
				}
				for _, u := range g.InNeighbors(v) {
					if depth[u] == level-1 {
						depth[v] = level
						changed = true
						break
					}
				}
			}
			if !changed {
				break
			}
		}
	}
	for _, ds := range []string{"D300", "R2"} {
		g, params := loadBench(b, ds)
		src, _ := g.Index(params.Source)
		b.Run("sparse-frontier/"+ds, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sparseBFS(g, src)
			}
		})
		b.Run("dense-scan/"+ds, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				denseBFS(g, src)
			}
		})
	}
}

// BenchmarkRenewalProcess exercises the renewal process of Section 2.4:
// re-deriving class L from a BFS time budget on the native engine.
func BenchmarkRenewalProcess(b *testing.B) {
	for i := 0; i < b.N; i++ {
		class, err := graphalytics.RenewClassL(context.Background(), "native", benchThreads, 2*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		if _, dup := printed.LoadOrStore("renewal", true); !dup {
			fmt.Printf("== renewal: with a 2s single-machine BFS budget, class L re-derives to %s ==\n\n", class)
		}
	}
}

// ---- Graph store layer benchmarks (dataset materialization pipeline) ----

// largestStandIn is the biggest catalog graph by edge count (R5,
// com-friendster stand-in): the worst case for harness-side dataset
// materialization and the reference point for the parallel builder's
// speedup over the seed's global edge sort.
const largestStandIn = "R5"

// BenchmarkBuilderBuild measures Builder.Build — identifier collection,
// endpoint translation and the parallel counting-sort CSR construction —
// on the largest stand-in's edge list.
func BenchmarkBuilderBuild(b *testing.B) {
	g, _ := loadBench(b, largestStandIn)
	edges := g.Edges()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bl := graph.NewBuilder(g.Directed(), g.Weighted())
		bl.Grow(0, len(edges))
		for _, e := range edges {
			bl.AddWeightedEdge(e.Src, e.Dst, e.Weight)
		}
		if _, err := bl.Build(); err != nil {
			b.Fatal(err)
		}
	}
}

// writeGraph500Snapshot generates a Graph500 graph at the given scale and
// writes its v2 snapshot into the benchmark's temp dir.
func writeGraph500Snapshot(b *testing.B, scale int) string {
	b.Helper()
	g, err := graph500.Generate(graph500.Config{Scale: scale, Seed: uint64(scale)})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), fmt.Sprintf("g500-%d.snap", scale))
	if err := graph.WriteSnapshotFile(path, g); err != nil {
		b.Fatal(err)
	}
	return path
}

// BenchmarkSnapshotMapOpen measures mmap-backed snapshot open at two
// sizes (scale 16 carries 16x the edges of scale 12). Open validates the
// header and slices the sections over the mapping — O(header) work — so
// ns/op must be size-independent; CI asserts the two sub-benchmarks stay
// within a small ratio, in contrast to BenchmarkSnapshotHeapLoad, which
// reads and verifies the whole file and so scales linearly with it.
func BenchmarkSnapshotMapOpen(b *testing.B) {
	for _, scale := range []int{12, 16} {
		b.Run(fmt.Sprintf("scale%d", scale), func(b *testing.B) {
			path := writeGraph500Snapshot(b, scale)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g, err := graph.MapSnapshotFile(path)
				if err != nil {
					b.Fatal(err)
				}
				if err := g.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSnapshotHeapLoad is ReadSnapshotFile on the same snapshot
// files — one read into a heap buffer, then every CRC and the shape
// checked: the baseline the O(header) map-open beats by orders of
// magnitude on warm caches.
func BenchmarkSnapshotHeapLoad(b *testing.B) {
	for _, scale := range []int{12, 16} {
		b.Run(fmt.Sprintf("scale%d", scale), func(b *testing.B) {
			path := writeGraph500Snapshot(b, scale)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := graph.ReadSnapshotFile(path); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuilderStreamed measures the out-of-core build: a Graph500
// stream external-sorted through a deliberately tight 1 MiB spill budget
// and built key range by key range into an on-disk v2 snapshot. Compare with
// BenchmarkBuilderBuild, which holds the whole edge list on the heap.
func BenchmarkBuilderStreamed(b *testing.B) {
	const scale = 14
	dir := b.TempDir()
	out := filepath.Join(dir, "streamed.snap")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bl := graph.NewBuilder(false, false)
		bl.SetSpill(graph.SpillOptions{Dir: dir, BudgetBytes: 1 << 20})
		if err := graph500.Into(graph500.Config{Scale: scale, Seed: scale}, bl); err != nil {
			b.Fatal(err)
		}
		if err := bl.BuildTo(out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadVE parses the same graph from the Graphalytics text
// format: the conversion cost the snapshot format exists to avoid.
func BenchmarkReadVE(b *testing.B) {
	g, _ := loadBench(b, largestStandIn)
	var vbuf, ebuf bytes.Buffer
	if err := graph.WriteVE(g, &vbuf, &ebuf); err != nil {
		b.Fatal(err)
	}
	vraw, eraw := vbuf.Bytes(), ebuf.Bytes()
	b.SetBytes(int64(len(vraw) + len(eraw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := graph.ReadVE(bytes.NewReader(vraw), bytes.NewReader(eraw),
			g.Name(), g.Directed(), g.Weighted(), graph.BuildOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreWarmLoad measures a memory-hit Load through the graph
// store — the steady-state cost every job pays on the dataset path.
func BenchmarkStoreWarmLoad(b *testing.B) {
	s := graphstore.New(graphstore.Options{})
	if _, err := workload.LoadFrom(s, largestStandIn); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := workload.LoadFrom(s, largestStandIn); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Parallel reference kernels (the internal/par fork-join runtime) ----

// Reference computation sits on the critical path of every validated job
// (the harness computes a reference output per dataset/algorithm pair),
// so the kernels run in parallel. These benchmarks measure the speedup of
// each parallel kernel over its sequential oracle on the largest stand-in
// dataset at 1, 2 and GOMAXPROCS workers; outputs are bit-identical at
// every worker count (asserted by the -race tests in internal/algorithms),
// so the sweep measures pure scheduling efficiency.

// kernelWorkerCounts is the benchmark sweep: degraded sequential, two
// workers, the contract's reference width of eight (worker count is a
// partitioning parameter under the internal/par determinism contract, so
// the eight-way point is comparable across hosts even when GOMAXPROCS
// multiplexes it onto fewer cores), and the whole machine.
func kernelWorkerCounts() []int {
	counts := []int{1, 2, 8}
	if p := runtime.GOMAXPROCS(0); p > 8 {
		counts = append(counts, p)
	}
	return counts
}

// ---- Engine message-plane benchmarks (the internal/mplane runtime) ----

// engineBenchPlatforms is the Execute sweep: all six engines, single
// machine. The spmv engine is benchmarked through its shared-memory
// backend, the configuration the paper's single-machine experiments use.
var engineBenchPlatforms = []string{"native", "spmv-s", "pushpull", "gas", "pregel", "dataflow"}

// engineBenchAlgorithms covers the iterative message-heavy workloads the
// message plane optimizes; LCC and SSSP are excluded to keep the sweep's
// wall time bounded (their hot paths share the same staging and histogram
// primitives).
var engineBenchAlgorithms = []algorithms.Algorithm{
	algorithms.BFS, algorithms.PR, algorithms.WCC, algorithms.CDLP,
}

// BenchmarkEngineExecute measures steady-state Execute on the largest
// stand-in for every engine x algorithm pair. The upload is shared across
// iterations, so after the first (warm-up) run the engines' pooled
// arenas are populated and allocs/op reflects the per-superstep residue —
// the number the zero-allocation message plane is accountable for.
func BenchmarkEngineExecute(b *testing.B) {
	g, params := loadBench(b, largestStandIn)
	for _, name := range engineBenchPlatforms {
		p, err := platform.Get(name)
		if err != nil {
			b.Fatal(err)
		}
		up, err := p.Upload(g, platform.RunConfig{Threads: benchThreads, Machines: 1})
		if err != nil {
			b.Fatal(err)
		}
		for _, a := range engineBenchAlgorithms {
			b.Run(fmt.Sprintf("%s/%s", name, a), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := p.Execute(context.Background(), up, a, params); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		up.Free()
	}
}

func BenchmarkRefKernelBFS(b *testing.B) {
	g, params := loadBench(b, largestStandIn)
	src, ok := g.Index(params.Source)
	if !ok {
		b.Fatal("benchmark source vertex missing")
	}
	b.Run("oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			algorithms.RefBFS(g, src)
		}
	})
	for _, w := range kernelWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				algorithms.ParBFS(g, src, w)
			}
		})
	}
}

func BenchmarkRefKernelPageRank(b *testing.B) {
	g, _ := loadBench(b, largestStandIn)
	const iters, damping = 10, 0.85
	b.Run("oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			algorithms.RefPageRank(g, iters, damping)
		}
	})
	for _, w := range kernelWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				algorithms.ParPageRank(g, iters, damping, w)
			}
		})
	}
}

func BenchmarkRefKernelWCC(b *testing.B) {
	g, _ := loadBench(b, largestStandIn)
	b.Run("oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			algorithms.RefWCC(g)
		}
	})
	for _, w := range kernelWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				algorithms.ParWCC(g, w)
			}
		})
	}
}

func BenchmarkRefKernelCDLP(b *testing.B) {
	g, _ := loadBench(b, largestStandIn)
	const iters = 5
	b.Run("oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			algorithms.RefCDLP(g, iters)
		}
	})
	for _, w := range kernelWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				algorithms.ParCDLP(g, iters, w)
			}
		})
	}
}

// BenchmarkRefKernelSSSP runs on R4 (dota-league), the largest weighted
// stand-in — R5 is unweighted, so SSSP cannot run there. The oracle is
// the binary-heap Dijkstra; the sweep is delta-stepping at each worker
// count, bit-identical to the oracle (both compute the unique relaxation
// fixpoint; see algorithms/sssp.go).
func BenchmarkRefKernelSSSP(b *testing.B) {
	g, params := loadBench(b, "R4")
	src, ok := g.Index(params.Source)
	if !ok {
		b.Fatal("benchmark source vertex missing")
	}
	b.Run("oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			algorithms.RefSSSP(g, src)
		}
	})
	for _, w := range kernelWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				algorithms.ParSSSP(g, src, w)
			}
		})
	}
}

func BenchmarkRefKernelLCC(b *testing.B) {
	g, _ := loadBench(b, largestStandIn)
	b.Run("oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			algorithms.RefLCC(g)
		}
	})
	for _, w := range kernelWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				algorithms.ParLCC(g, w)
			}
		})
	}
}

// ---- Plan pipeline benchmarks (Spec -> Plan -> Run) ----

// BenchmarkPlanSharedUpload measures what deployment-group upload leasing
// saves: the canonical algorithm-sweep plan (1 platform x 1 dataset x 5
// algorithms) on the largest stand-in, executed by RunPlan with one shared
// upload per deployment (shared) versus on a plan that makes each job a
// deployment of its own (perjob). The gas engine's vertex-cut upload is the costliest of the
// six engines, so it bounds the benefit from above among
// single-deployment sweeps; validation is off so only harness-visible
// work is timed.
func BenchmarkPlanSharedUpload(b *testing.B) {
	if _, err := workload.Load(largestStandIn); err != nil {
		b.Fatal(err)
	}
	plan, err := graphalytics.CompileSpec(graphalytics.BenchSpec{
		Name:       "shared-upload",
		Platforms:  []string{"gas"},
		Datasets:   graphalytics.DatasetSelector{IDs: []string{largestStandIn}},
		Algorithms: []graphalytics.Algorithm{graphalytics.BFS, graphalytics.PR, graphalytics.WCC, graphalytics.CDLP, graphalytics.LCC},
		Configs:    []graphalytics.ResourceSpec{{Threads: 2, Machines: 1}},
	})
	if err != nil {
		b.Fatal(err)
	}
	perJob := &graphalytics.Plan{Name: "per-job", Jobs: plan.Jobs}
	for i, job := range plan.Jobs {
		perJob.Deployments = append(perJob.Deployments, graphalytics.Deployment{
			Platform: job.Platform, Dataset: job.Dataset, Config: plan.Deployments[0].Config, Jobs: []int{i},
		})
	}
	s := newBenchSession(graphalytics.WithValidation(false))
	for _, mode := range []struct {
		name string
		run  func() ([]graphalytics.JobResult, error)
	}{
		{"shared", func() ([]graphalytics.JobResult, error) { return s.RunPlan(context.Background(), plan) }},
		{"perjob", func() ([]graphalytics.JobResult, error) { return s.RunPlan(context.Background(), perJob) }},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				results, err := mode.run()
				if err != nil {
					b.Fatal(err)
				}
				for _, res := range results {
					if res.Status != graphalytics.StatusOK {
						b.Fatalf("%s/%s: %s (%s)", res.Spec.Platform, res.Spec.Algorithm, res.Status, res.Error)
					}
				}
			}
		})
	}
}
