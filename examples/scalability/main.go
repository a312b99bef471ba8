// Scalability study: run the benchmark's vertical (threads) and strong
// horizontal (machines) scalability experiments on one dataset and print
// speedup tables, the way Section 4.3-4.4 of the paper reports them.
//
// The example uses the context-first Session API: jobs of each sweep are
// scheduled on a bounded worker pool, progress streams through an
// Observer, and Ctrl-C cancels the remaining jobs cleanly.
//
// Run with: go run ./examples/scalability
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"graphalytics"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	progress := graphalytics.ObserverFunc(func(e graphalytics.Event) {
		if e.Type == graphalytics.EventJobFinished { // Result is always set on this event

			fmt.Fprintf(os.Stderr, "  [%d/%d] %s %s/%s t=%d m=%d: %s\n",
				e.Index+1, e.Total, e.Spec.Platform, e.Spec.Dataset,
				e.Spec.Algorithm, e.Spec.Threads, e.Spec.Machines, e.Result.Status)
		}
	})
	s := graphalytics.NewSession(
		graphalytics.WithSLA(time.Minute),
		graphalytics.WithParallelism(4),
		graphalytics.WithObserver(progress),
	)

	// Vertical: one machine, growing thread count, every platform. The
	// experiment is a spec builder — preview what it compiles to before
	// running it: each (platform, threads) deployment uploads once and
	// runs both algorithms on the shared handle.
	vertCfg := graphalytics.ExperimentConfig{
		Platforms:   graphalytics.SingleMachinePlatforms(),
		ThreadSweep: []int{1, 2, 4, 8},
	}
	fig7, _ := graphalytics.ExperimentByID("fig7")
	plan, err := s.Compile(fig7.Spec(vertCfg))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Vertical scalability (BFS + PR on D300, 1 machine): %d jobs, %d uploads\n",
		len(plan.Jobs), len(plan.Deployments))
	// One run of the matrix, two pure renderers over its results: the
	// Tproc table (Figure 7) and the maximum speedups (Table 9).
	spec, results, err := s.RunMatrix(ctx, "fig7", vertCfg)
	if err != nil {
		log.Fatal(err)
	}
	table9, _ := graphalytics.ExperimentByID("table9")
	for _, exp := range []graphalytics.Experiment{fig7, table9} {
		if err := exp.Render(spec, results).Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}

	// Strong horizontal: constant dataset, growing machine count,
	// distributed platforms only.
	fmt.Println("Strong horizontal scalability (BFS + PR on D1000):")
	strong, err := s.RunExperiment(ctx, "fig8", graphalytics.ExperimentConfig{
		Platforms:    graphalytics.DistributedPlatforms(),
		MachineSweep: []int{1, 2, 4, 8},
		Threads:      2,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := strong.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	fmt.Println("The distributed engines pay modeled network time per synchronization")
	fmt.Println("round, so speedup flattens as communication grows with the machine count.")
}
