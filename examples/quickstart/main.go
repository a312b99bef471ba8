// Quickstart: build a small graph, run BFS and PageRank on one of the
// engines, validate the output against the reference implementation, and
// finally run a fully harnessed benchmark job through the context-first
// Session API.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"graphalytics"
)

func main() {
	// A small directed friendship/mention graph. Vertices are implicit
	// from edges; vertex 6 is isolated and added explicitly.
	b := graphalytics.NewBuilder(true, false)
	b.SetName("quickstart")
	b.AddVertex(6)
	for _, e := range []graphalytics.Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 1, Dst: 2},
		{Src: 2, Dst: 3}, {Src: 3, Dst: 0}, {Src: 3, Dst: 4},
		{Src: 4, Dst: 5}, {Src: 5, Dst: 3},
	} {
		b.AddEdge(e.Src, e.Dst)
	}
	g, err := b.Build()
	if err != nil {
		log.Fatalf("build graph: %v", err)
	}
	fmt.Println(g)

	params := graphalytics.Params{Source: 0, Iterations: 10}

	// Run BFS on the hand-tuned native engine.
	res, err := graphalytics.Run(context.Background(), "native", g, graphalytics.BFS, params,
		graphalytics.RunConfig{Threads: 2})
	if err != nil {
		log.Fatalf("run BFS: %v", err)
	}
	fmt.Printf("\nBFS from vertex %d (Tproc %v):\n", params.Source, res.ProcessingTime)
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		d := res.Output.Int[v]
		if d == graphalytics.Unreachable {
			fmt.Printf("  vertex %d: unreachable\n", g.VertexID(v))
		} else {
			fmt.Printf("  vertex %d: %d hops\n", g.VertexID(v), d)
		}
	}

	// Validate against the reference implementation — the benchmark's
	// definition of correctness.
	want, err := graphalytics.Reference(g, graphalytics.BFS, params)
	if err != nil {
		log.Fatalf("reference: %v", err)
	}
	if rep := graphalytics.Validate(res.Output, want, g); !rep.OK {
		log.Fatalf("validation failed: %v", rep.Error())
	}
	fmt.Println("BFS output validated against the reference implementation.")

	// PageRank on every registered platform: all engines agree.
	fmt.Println("\nPageRank (top 3 vertices) per platform:")
	for _, name := range graphalytics.Platforms() {
		p, err := graphalytics.PlatformByName(name)
		if err != nil {
			log.Fatal(err)
		}
		if !p.Supports(graphalytics.PR) {
			continue
		}
		res, err := graphalytics.Run(context.Background(), name, g, graphalytics.PR, params,
			graphalytics.RunConfig{Threads: 2})
		if err != nil {
			log.Fatalf("run PR on %s: %v", name, err)
		}
		best := topRanked(res.Output.Float, 3)
		fmt.Printf("  %-9s (%-11s): ", name, graphalytics.PaperName(name))
		for _, v := range best {
			fmt.Printf("v%d=%.4f ", g.VertexID(v), res.Output.Float[v])
		}
		fmt.Println()
	}

	// Finally, the harness proper: declare a benchmark spec, compile it
	// into an explicit plan, and run the plan through a Session — which
	// adds SLA enforcement and validation against a cached reference, and
	// pays one graph upload per deployment group (here: one upload for all
	// three algorithms). The run returns its results; reports are pure
	// functions of them.
	spec := graphalytics.BenchSpec{
		Name:       "quickstart",
		Platforms:  []string{"native"},
		Datasets:   graphalytics.DatasetSelector{IDs: []string{"R1"}},
		Algorithms: []graphalytics.Algorithm{graphalytics.BFS, graphalytics.PR, graphalytics.WCC},
		Configs:    []graphalytics.ResourceSpec{{Threads: 2, Machines: 1}},
		SLA:        graphalytics.SpecDuration(30 * time.Second),
	}
	s := graphalytics.NewSession()
	plan, err := s.Compile(spec)
	if err != nil {
		log.Fatalf("compile spec: %v", err)
	}
	fmt.Printf("\ncompiled plan %s: %d jobs in %d deployment(s)\n", plan.Name, len(plan.Jobs), len(plan.Deployments))
	results, err := s.RunPlan(context.Background(), plan)
	if err != nil {
		log.Fatalf("run plan: %v", err)
	}
	for _, job := range results {
		shared := ""
		if job.UploadShared {
			shared = " (shared)"
		}
		fmt.Printf("  %s on R1: status=%s upload=%v%s makespan=%v validated=%v\n",
			job.Spec.Algorithm, job.Status, job.UploadTime, shared, job.Makespan, job.ValidationOK)
	}
}

// topRanked returns the indices of the k largest values.
func topRanked(vals []float64, k int) []int32 {
	idx := make([]int32, len(vals))
	for i := range idx {
		idx[i] = int32(i)
	}
	for i := 0; i < k && i < len(idx); i++ {
		for j := i + 1; j < len(idx); j++ {
			if vals[idx[j]] > vals[idx[i]] {
				idx[i], idx[j] = idx[j], idx[i]
			}
		}
	}
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}
