package conformance_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"graphalytics/internal/algorithms"
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
				up, err := platform.UploadContext(ctx, p, c.Graph, platform.RunConfig{Threads: cfg.Threads, Machines: cfg.Machines})
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
