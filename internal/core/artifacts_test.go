package core_test

import (
	"bytes"
	"context"
	"reflect"
	"slices"
	"testing"
	"time"

	"graphalytics/internal/clock"
	"graphalytics/internal/core"
	"graphalytics/internal/platform"
)

// liveConfig is the experiment configuration of the live artifact goldens:
// every engine, the stress test's 200 KiB budget, and small sweeps that
// still show each artifact's shape — a (D) substitution, N/A cells, OOM
// failure points, distributed scaling from 2 to 4 machines. Figure 8
// sweeps no single machine: under a frozen clock that point renders 0 for
// every engine, and its seven D1000 deployments would double the test's
// run time.
var liveConfig = core.ExperimentConfig{
	Platforms:     []string{"native", "spmv-s", "spmv-d", "pushpull", "gas", "pregel", "dataflow"},
	SingleMachine: []string{"native", "spmv-s", "pushpull"},
	Distributed:   []string{"spmv-d", "gas", "pregel", "dataflow"},
	Threads:       2,
	ThreadSweep:   []int{1, 2, 4},
	MachineSweep:  []int{2, 4},
	WeakPairs:     []core.WeakPair{{Machines: 1, Dataset: "G22"}, {Machines: 2, Dataset: "G23"}, {Machines: 4, Dataset: "G24"}},
	MemoryBudget:  200 << 10,
	Repetitions:   3,
}

// TestPaperArtifactsGolden regenerates every paper artifact through the
// whole pipeline — spec, Plan, RunPlan, the engines, validation, the
// renderer — under a frozen clock, and pins each render byte for byte in
// testdata/reports/live/<id>.golden (-update rewrites them). With time
// frozen, every number left is either modeled (network time, the
// distributed scaling columns) or counted (statuses, failure markers,
// validation, the (D) substitution, stress-test failure points), so a
// second pass at scheduler parallelism 8 must reproduce the sequential
// pass's renders and its JSONL result stream exactly. Each matrix runs
// once per pass, and every artifact over it renders that run (Figure 5
// over Figure 4's, Table 9 over Figure 7's), which is what RunExperiment
// does for one artifact: RunMatrix, then Render.
func TestPaperArtifactsGolden(t *testing.T) {
	if got := slices.Sorted(slices.Values(liveConfig.Platforms)); !slices.Equal(got, platform.Names()) {
		t.Fatalf("live config covers engines %v, registry has %v", got, platform.Names())
	}
	defer clock.SetForTesting(func() time.Time { return time.Date(2016, 9, 5, 0, 0, 0, 0, time.UTC) })()

	renders := map[string]string{}
	var streams [2]bytes.Buffer
	for pass, parallelism := range []int{1, 8} {
		s := core.NewSession(core.WithSLA(2*time.Minute), core.WithParallelism(parallelism),
			core.WithSink(core.NewJSONLSink(&streams[pass])))
		matrices := map[string][]core.JobResult{}
		for _, exp := range core.Experiments() {
			results, ok := matrices[exp.Matrix]
			if !ok {
				var err error
				if _, results, err = s.RunMatrix(context.Background(), exp.ID, liveConfig); err != nil {
					t.Fatalf("%s at parallelism %d: %v", exp.Matrix, parallelism, err)
				}
				matrices[exp.Matrix] = results
			}
			rep := exp.Render(exp.Spec(liveConfig), results)
			if pass == 0 {
				checkGolden(t, "live/"+exp.ID, rep)
				renders[exp.ID] = renderOK(t, rep)
			} else if got := renderOK(t, rep); got != renders[exp.ID] {
				t.Errorf("%s at parallelism %d differs from the sequential render:\n--- got ---\n%s--- want ---\n%s",
					exp.ID, parallelism, got, renders[exp.ID])
			}
		}
	}
	a, b := bytes.Split(streams[0].Bytes(), []byte("\n")), bytes.Split(streams[1].Bytes(), []byte("\n"))
	for i := range min(len(a), len(b)) {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("JSONL result %d differs between parallelism 1 and 8:\n%s\n%s", i+1, a[i], b[i])
		}
	}
	if len(a) != len(b) {
		t.Fatalf("parallelism 1 streamed %d results, parallelism 8 %d", len(a)-1, len(b)-1)
	}
}

// TestStressTestProbes pins how table 10 probes: the sink sees exactly
// the results the run returns, in the same order; no probe of a platform
// runs after that platform's first non-OK result; and the report is the
// live golden's.
func TestStressTestProbes(t *testing.T) {
	defer clock.SetForTesting(func() time.Time { return time.Date(2016, 9, 5, 0, 0, 0, 0, time.UTC) })()
	var delivered []core.JobResult
	s := core.NewSession(core.WithSLA(2*time.Minute), core.WithParallelism(1), core.WithSink(collectSink(&delivered)))
	spec, results, err := s.RunMatrix(context.Background(), "table10", liveConfig)
	if err != nil {
		t.Fatal(err)
	}
	if len(delivered) != len(results) {
		t.Fatalf("sink received %d results, the run returned %d", len(delivered), len(results))
	}
	for i := range results {
		if !reflect.DeepEqual(delivered[i], results[i]) {
			t.Fatalf("sink result %d differs from the returned one:\n%+v\n%+v", i, delivered[i], results[i])
		}
	}
	failed := map[string]bool{}
	for i, res := range results {
		if failed[res.Spec.Platform] {
			t.Errorf("probe %d (%s on %s) ran after %s's first failure", i, res.Spec.Dataset, res.Spec.Platform, res.Spec.Platform)
		}
		failed[res.Spec.Platform] = !res.Completed()
	}
	exp, _ := core.ExperimentByID("table10")
	checkGolden(t, "live/table10", exp.Render(spec, results))
}
