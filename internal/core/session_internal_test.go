package core

import (
	"context"
	"testing"
	"time"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/platforms"
)

func init() { platforms.RegisterAll() }

// perJobPlan makes every job a deployment of its own, so jobs on the same
// dataset and algorithm run concurrently.
func perJobPlan(specs []JobSpec) *Plan {
	p := &Plan{Name: "per-job", Jobs: specs}
	for i, spec := range specs {
		p.Deployments = append(p.Deployments, Deployment{Platform: spec.Platform, Dataset: spec.Dataset, Config: resourceOf(spec), Jobs: []int{i}})
	}
	return p
}

// TestRunAllSingleFlightReference runs many concurrent jobs on the same
// dataset/algorithm pair and asserts the reference output is computed
// exactly once: the whole point of the cache's single-flight semantics.
func TestRunAllSingleFlightReference(t *testing.T) {
	s := NewSession(WithSLA(2*time.Minute), WithParallelism(8))
	specs := make([]JobSpec, 16)
	for i := range specs {
		specs[i] = JobSpec{Platform: "native", Dataset: "R1", Algorithm: algorithms.BFS, Threads: 1, Machines: 1}
	}
	results, err := s.RunPlan(context.Background(), perJobPlan(specs))
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Status != StatusOK {
			t.Fatalf("job %d: status %s (%s), want ok", i, res.Status, res.Error)
		}
		if !res.Validated || !res.ValidationOK {
			t.Fatalf("job %d: expected validated output", i)
		}
	}
	if got := s.refs.computes.Load(); got != 1 {
		t.Fatalf("reference computed %d times for one dataset/algorithm pair, want 1", got)
	}
}

// TestRunAllSingleFlightPerPair checks that distinct dataset/algorithm
// pairs each get their own single computation.
func TestRunAllSingleFlightPerPair(t *testing.T) {
	s := NewSession(WithSLA(2*time.Minute), WithParallelism(8))
	var specs []JobSpec
	pairs := []struct {
		ds string
		a  algorithms.Algorithm
	}{
		{"R1", algorithms.BFS}, {"R1", algorithms.PR},
		{"R2", algorithms.BFS}, {"R2", algorithms.WCC},
	}
	for rep := 0; rep < 4; rep++ {
		for _, p := range pairs {
			specs = append(specs, JobSpec{Platform: "native", Dataset: p.ds, Algorithm: p.a, Threads: 1, Machines: 1})
		}
	}
	if _, err := s.RunPlan(context.Background(), perJobPlan(specs)); err != nil {
		t.Fatal(err)
	}
	if got := s.refs.computes.Load(); got != int64(len(pairs)) {
		t.Fatalf("reference computed %d times, want %d (one per pair)", got, len(pairs))
	}
}
