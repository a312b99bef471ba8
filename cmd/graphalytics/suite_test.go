package main

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"
	"time"

	"graphalytics/internal/core"
)

// TestRunSuitesRunsEachMatrixOnce drives the suite loop over {fig4, fig5}
// — two artifacts over one matrix — and requires the matrix to execute
// exactly once (finished jobs counted by an observer), both tables to be
// rendered, and the up-front JSONL sink to have streamed one line per job.
func TestRunSuitesRunsEachMatrixOnce(t *testing.T) {
	axes := suiteAxes{single: []string{"native", "spmv-s"}, threads: 2}
	finished := 0
	var jsonl bytes.Buffer
	s := core.NewSession(
		core.WithSLA(2*time.Minute),
		core.WithSink(core.NewJSONLSink(&jsonl)),
		core.WithObserver(core.ObserverFunc(func(e core.Event) {
			if e.Type == core.EventJobFinished {
				finished++
			}
		})),
	)
	plan, err := s.Compile(core.DatasetVarietySpec(axes.config("fig4")))
	if err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := runSuites(context.Background(), s, []string{"fig4", "fig5"}, axes, &out); err != nil {
		t.Fatal(err)
	}
	if finished != len(plan.Jobs) || finished == 0 {
		t.Errorf("{fig4, fig5} executed %d jobs, want the fig4 matrix once: %d", finished, len(plan.Jobs))
	}
	if lines := strings.Count(jsonl.String(), "\n"); lines != len(plan.Jobs) {
		t.Errorf("JSONL stream has %d lines, want %d", lines, len(plan.Jobs))
	}
	for _, want := range []string{"== fig4:", "== fig5:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("suite output is missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunSuitesUnknownID rejects an ID that is in no table before running
// anything.
func TestRunSuitesUnknownID(t *testing.T) {
	err := runSuites(context.Background(), core.NewSession(), []string{"fig99"}, suiteAxes{}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), `unknown suite "fig99"`) {
		t.Fatalf("err = %v, want unknown suite", err)
	}
}

// TestSuiteIDsOrder pins what `suite -id all` runs: the experiment table
// in the paper's order — each second renderer right after its matrix —
// then the Datagen self-test.
func TestSuiteIDsOrder(t *testing.T) {
	want := "fig4 fig5 table8 fig6 fig7 table9 fig8 fig9 table10 table11 fig10"
	if got := strings.Join(suiteIDs(), " "); got != want {
		t.Errorf("suite order = %s, want %s", got, want)
	}
}
