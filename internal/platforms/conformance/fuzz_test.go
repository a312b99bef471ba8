package conformance_test

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"testing"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
	"graphalytics/internal/platforms"
	"graphalytics/internal/platforms/conformance"
	"graphalytics/internal/platforms/pregel"
	"graphalytics/internal/validation"
)

// fuzzEngine is one engine the fuzzer picks, with the algorithms whose
// output must be the oracle's bits (the others are validated).
type fuzzEngine struct {
	name string
	p    platform.Platform
	bits []algorithms.Algorithm
}

// fuzzEngines are the seven registered engines and pregel without
// combiners. The bit-for-bit algorithms are those
// TestNativeMatchesOracleBitForBit and TestRangeEnginesMatchOracleBitForBit
// assert bits for, and pregel's and dataflow's LCC, whose numerators are
// the oracle's exact integers and whose quotients are the oracle's
// expression.
func fuzzEngines(t testing.TB) []fuzzEngine {
	platforms.RegisterAll()
	get := func(name string) platform.Platform {
		p, err := platform.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	ranges := []algorithms.Algorithm{algorithms.BFS, algorithms.PR, algorithms.WCC, algorithms.CDLP, algorithms.SSSP}
	lcc := []algorithms.Algorithm{algorithms.LCC}
	return []fuzzEngine{
		{"native", get("native"), algorithms.All},
		{"spmv-s", get("spmv-s"), algorithms.All},
		{"spmv-d", get("spmv-d"), algorithms.All},
		{"pushpull", get("pushpull"), ranges},
		{"gas", get("gas"), []algorithms.Algorithm{algorithms.BFS, algorithms.WCC, algorithms.CDLP, algorithms.LCC, algorithms.SSSP}},
		{"pregel", get("pregel"), lcc},
		{"pregel-nocombine", pregel.NewWithOptions(false), lcc},
		{"dataflow", get("dataflow"), lcc},
	}
}

// fuzzDeployments are the machine and thread counts the fuzzer picks from.
var fuzzDeployments = []int{1, 3, 8}

// engineCase is one decoded fuzz input: a graph, its parameters, an
// engine and a deployment.
type engineCase struct {
	g                 *graph.Graph
	params            algorithms.Params
	engine            int
	machines, threads int
}

// Byte layout of a fuzz input: a header of engineHeader bytes, then one
// edge per 2 bytes (source, target), or per 3 (source, target, weight) on
// a weighted graph.
const (
	flagsByte      = iota // bit 0: directed; bit 1: weighted
	engineByte            // the engine, mod the number of fuzzEngines
	deploymentByte        // machines = fuzzDeployments[b%3], threads = fuzzDeployments[b/3%3]
	verticesByte          // 1 + b%64 vertices
	sourceByte            // the BFS/SSSP source's index, mod the vertex count
	idGapByte             // vertex i's identifier is 5 + i*(2 + b%3)
	iterationsByte        // PageRank and CDLP iterations, 1 + b%10
	engineHeader
)

// maxFuzzEdges caps a decoded graph's edges.
const maxFuzzEdges = 256

// decodeEngineCase decodes a fuzz input. Self-loops and repeated edges
// are skipped; weights are multiples of 1/16 in [0, 4]. Engines that run
// on one machine only are deployed on one.
func decodeEngineCase(data []byte, engines []fuzzEngine) (engineCase, error) {
	if len(data) < engineHeader {
		return engineCase{}, nil
	}
	directed, weighted := data[flagsByte]&1 == 1, data[flagsByte]&2 == 2
	n := 1 + int64(data[verticesByte])%64
	gap := 2 + int64(data[idGapByte])%3
	id := func(i int64) int64 { return 5 + i*gap }
	c := engineCase{
		engine:   int(data[engineByte]) % len(engines),
		machines: fuzzDeployments[data[deploymentByte]%3],
		threads:  fuzzDeployments[data[deploymentByte]/3%3],
		params: algorithms.Params{
			Source:     id(int64(data[sourceByte]) % n),
			Iterations: 1 + int(data[iterationsByte])%10,
		},
	}
	if !engines[c.engine].p.Distributed() {
		c.machines = 1
	}
	b := graph.NewBuilder(directed, weighted)
	for i := int64(0); i < n; i++ {
		b.AddVertex(id(i))
	}
	type arc struct{ src, dst int64 }
	seen := map[arc]bool{}
	width := 2
	if weighted {
		width = 3
	}
	for rest := data[engineHeader:]; len(rest) >= width && len(seen) < maxFuzzEdges; rest = rest[width:] {
		a := arc{int64(rest[0]) % n, int64(rest[1]) % n}
		if !directed && a.src > a.dst {
			a.src, a.dst = a.dst, a.src
		}
		if a.src == a.dst || seen[a] {
			continue
		}
		seen[a] = true
		w := 1.0
		if weighted {
			w = float64(rest[2]%65) / 16
		}
		b.AddWeightedEdge(id(a.src), id(a.dst), w)
	}
	g, err := b.Build()
	c.g = g
	return c, err
}

// encodeCorpusCase encodes the first 64 vertices of a corpus graph, and
// the arcs among them, as a fuzz input for engine e in deployment d.
// Weights round to the nearest sixteenth in [0, 4].
func encodeCorpusCase(c conformance.Case, e, d int) []byte {
	g := c.Graph
	n := min(g.NumVertices(), 64)
	var flags byte
	if g.Directed() {
		flags |= 1
	}
	if g.Weighted() {
		flags |= 2
	}
	src, _ := g.Index(c.Params.Source)
	if int(src) >= n {
		src = 0
	}
	data := []byte{flags, byte(e), byte(d), byte(n - 1), byte(src), 0, byte(max(c.Params.Iterations-1, 0))}
	for v := int32(0); v < int32(n); v++ {
		ws := g.OutWeights(v)
		for i, dst := range g.OutNeighbors(v) {
			if int(dst) >= n || (!g.Directed() && dst < v) {
				continue
			}
			data = append(data, byte(v), byte(dst))
			if ws != nil {
				data = append(data, byte(min(math.Round(ws[i]*16), 64)))
			}
		}
	}
	return data
}

// FuzzEnginesMatchOracle is the paper's validation rule (§2.2.3) over
// graphs the corpus does not hold: a decoded graph of at most 64
// vertices, directed or not, weighted or not, with gaps between its
// identifiers, runs every algorithm an engine supports — SSSP on weighted
// graphs only — on 1, 3 or 8 machines of 1, 3 or 8 threads. Where the
// oracle tests already hold an engine to the sequential oracle's bits,
// so does this; every other output must pass validation.Validate against
// the reference. The graph is also written as a snapshot and mapped, and
// the engine's outputs on the mapped view must be the heap graph's bits.
// The seeds are every corpus graph (its first 64 vertices) on every
// engine, spread over the deployments.
//
// The engines are the process's: each keeps one scratch pool for its
// lifetime, so every input runs on arenas the inputs before it grew, on
// graphs of other sizes and on other deployments. The fuzzer is therefore
// also the oracle for arena reuse across graphs: state one job leaves in
// a pooled arena must never reach another job's output.
func FuzzEnginesMatchOracle(f *testing.F) {
	engines := fuzzEngines(f)
	for i, c := range conformance.Corpus() {
		for e := range engines {
			f.Add(encodeCorpusCase(c, e, (i+e)%9))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := decodeEngineCase(data, engines)
		if err != nil {
			t.Fatalf("decoded graph does not build: %v", err)
		}
		if c.g == nil {
			return
		}
		e := engines[c.engine]
		p := e.p
		ctx := context.Background()
		path := filepath.Join(t.TempDir(), "g.gsnap")
		if err := graph.WriteSnapshotFile(path, c.g); err != nil {
			t.Fatal(err)
		}
		mapped, err := graph.MapSnapshotFile(path)
		if err != nil {
			t.Fatal(err)
		}
		defer mapped.Close()
		rc := platform.RunConfig{Threads: c.threads, Machines: c.machines}
		up, err := p.UploadContext(ctx, c.g, rc)
		if err != nil {
			t.Fatalf("%s: upload: %v", e.name, err)
		}
		defer up.Free()
		upMapped, err := p.UploadContext(ctx, mapped, rc)
		if err != nil {
			t.Fatalf("%s: upload mapped: %v", e.name, err)
		}
		defer upMapped.Free()
		cs := conformance.Case{Name: "fuzz", Graph: c.g, Params: c.params}
		for _, a := range algorithms.All {
			if !p.Supports(a) || (a == algorithms.SSSP && !c.g.Weighted()) {
				continue
			}
			at := fmt.Sprintf("%s %s t%d-m%d (%d vertices, directed=%v)", e.name, a, c.threads, c.machines, c.g.NumVertices(), c.g.Directed())
			res, err := p.Execute(ctx, up, a, c.params)
			if err != nil {
				t.Fatalf("%s: %v", at, err)
			}
			resMapped, err := p.Execute(ctx, upMapped, a, c.params)
			if err != nil {
				t.Fatalf("%s mapped: %v", at, err)
			}
			if !sameBits(res.Output, resMapped.Output) {
				t.Fatalf("%s: output on the mapped graph differs from the heap graph's", at)
			}
			if slices.Contains(e.bits, a) {
				want := oracle(t, cs, a)
				if !sameBits(res.Output, want) {
					t.Fatalf("%s: output differs from the sequential oracle", at)
				}
				continue
			}
			want, err := algorithms.RunReference(c.g, a, c.params)
			if err != nil {
				t.Fatal(err)
			}
			if rep := validation.Validate(res.Output, want, c.g.IDs()); !rep.OK {
				t.Fatalf("%s: %v", at, rep.Error())
			}
		}
	})
}
