package platform_test

import (
	"context"
	"errors"
	"testing"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/cluster"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
)

// fakeUpload is the layout of the fake engine: nothing but the embedding.
type fakeUpload struct{ platform.BaseUpload }

// fakeEngine has BFS and SSSP kernels that echo the resolved source index,
// registers layout[m] bytes per machine at upload and state bytes per
// machine per job.
func fakeEngine(layout []int64, state int64) platform.Platform {
	echo := func(_ context.Context, u *fakeUpload, j *platform.Job) (*algorithms.Output, error) {
		return j.Ints(make([]int64, u.G.NumVertices()), nil)
	}
	return platform.New(platform.Engine[*fakeUpload]{
		Name:        "fake",
		Distributed: true,
		Load: func(context.Context, *graph.Graph, *cluster.Cluster) (*fakeUpload, []int64, error) {
			return &fakeUpload{}, layout, nil
		},
		Kernels: map[algorithms.Algorithm]platform.Kernel[*fakeUpload]{
			algorithms.BFS:  echo,
			algorithms.SSSP: echo,
		},
		State: func(*fakeUpload, *platform.Job) int64 { return state },
	})
}

func pathGraph(t *testing.T, weighted bool) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(true, weighted)
	b.AddWeightedEdge(1, 2, 1)
	b.AddWeightedEdge(2, 3, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDriverRejectsBadRequests(t *testing.T) {
	p := fakeEngine([]int64{10}, 1)
	live := context.Background()
	cancelled, cancel := context.WithCancel(live)
	cancel()
	unweighted, err := p.Upload(pathGraph(t, false), platform.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer unweighted.Free()
	foreign := &platform.BaseUpload{G: unweighted.Graph(), Cl: unweighted.Cluster()}

	for _, tc := range []struct {
		name   string
		ctx    context.Context
		up     platform.Uploaded
		algo   algorithms.Algorithm
		source int64
		want   error // nil: any error
	}{
		{"foreign upload handle", live, foreign, algorithms.BFS, 1, nil},
		{"unsupported", live, unweighted, algorithms.PR, 1, platform.ErrUnsupported},
		{"unknown", live, unweighted, "bfs", 1, algorithms.ErrUnknownAlgorithm},
		{"source not found", live, unweighted, algorithms.BFS, 99, algorithms.ErrSourceNotFound},
		{"SSSP on an unweighted graph", live, unweighted, algorithms.SSSP, 1, algorithms.ErrNeedsWeights},
		{"already-cancelled context", cancelled, unweighted, algorithms.BFS, 1, context.Canceled},
	} {
		res, err := p.Execute(tc.ctx, tc.up, tc.algo, algorithms.Params{Source: tc.source})
		if err == nil || res != nil {
			t.Errorf("%s: Execute = (%v, %v), want an error and no result", tc.name, res, err)
		}
		if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	if _, err := p.Execute(live, unweighted, "bfs", algorithms.Params{}); errors.Is(err, platform.ErrUnsupported) {
		t.Errorf("unknown algorithm reported as unsupported: %v", err)
	}
	if !p.Supports(algorithms.BFS) || p.Supports(algorithms.PR) || p.Supports("bfs") {
		t.Error("Supports must mirror the kernel table's keys")
	}
}

func TestDriverExecute(t *testing.T) {
	p := fakeEngine([]int64{10, 20}, 5)
	up, err := platform.UploadContext(context.Background(), p, pathGraph(t, true), platform.RunConfig{Machines: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Execute(context.Background(), up, algorithms.SSSP, algorithms.Params{Source: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.Algorithm != algorithms.SSSP || res.Output.Len() != 3 {
		t.Errorf("output = %+v", res.Output)
	}
	if res.PeakMemory != 25 {
		t.Errorf("PeakMemory = %d, want layout 20 + state 5", res.PeakMemory)
	}
	if res.Archive == nil || res.Archive.Platform != "fake" || res.Archive.Root.Child("ProcessGraph") == nil {
		t.Errorf("archive = %+v", res.Archive)
	}
	up.Free()
	up.Free()                // idempotent: the second call has nothing left to release
	up.Cluster().ResetPeak() // peak := in use
	if held := up.Cluster().PeakMemory(); held != 0 {
		t.Errorf("after Free the upload still holds %d bytes on some machine", held)
	}
}

func TestDriverUploadErrors(t *testing.T) {
	g := pathGraph(t, false)
	if _, err := fakeEngine([]int64{10, 10, 99}, 1).Upload(g, platform.RunConfig{Machines: 3, MemoryPerMachine: 50}); !errors.Is(err, cluster.ErrOutOfMemory) {
		t.Errorf("oversized layout: err = %v, want ErrOutOfMemory", err)
	}
	single := platform.New(platform.Engine[*fakeUpload]{Name: "single"})
	if _, err := single.Upload(g, platform.RunConfig{Machines: 2}); !errors.Is(err, platform.ErrNotDistributed) {
		t.Errorf("two machines on a single-machine engine: err = %v, want ErrNotDistributed", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := platform.UploadContext(ctx, single, g, platform.RunConfig{}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled upload: err = %v, want context.Canceled", err)
	}
}

// TestDriverStateOOMRollsBack: machines 0 and 1 have room for the job's
// state, machine 2 does not. The failed job must leave the first two back
// at their upload-level registration of 100 bytes — not a byte more (the
// state was rolled back) and not a byte less.
func TestDriverStateOOMRollsBack(t *testing.T) {
	const budget, layout, state = 600, 100, 200
	p := fakeEngine([]int64{layout, layout, 500}, state)
	up, err := p.Upload(pathGraph(t, false), platform.RunConfig{Machines: 3, MemoryPerMachine: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer up.Free()
	if _, err := p.Execute(context.Background(), up, algorithms.BFS, algorithms.Params{Source: 1}); !errors.Is(err, cluster.ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	cl := up.Cluster()
	for m := 0; m < 2; m++ {
		if err := cl.Alloc(m, budget-layout+1); err == nil {
			t.Errorf("machine %d holds less than its %d-byte layout after the failed job", m, layout)
		}
		if err := cl.Alloc(m, budget-layout); err != nil {
			t.Errorf("machine %d still holds job state after the failed job: %v", m, err)
		}
		cl.Free(m, budget-layout)
	}
}
