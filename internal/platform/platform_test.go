package platform_test

import (
	"context"
	"testing"
	"time"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/cluster"
	"graphalytics/internal/granula"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
)

// fake is a minimal Platform for registry tests.
type fake struct{ name string }

func (f *fake) Name() string                         { return f.name }
func (f *fake) Description() string                  { return "fake" }
func (f *fake) Distributed() bool                    { return false }
func (f *fake) Supports(a algorithms.Algorithm) bool { return a == algorithms.BFS }
func (f *fake) UploadContext(ctx context.Context, g *graph.Graph, cfg platform.RunConfig) (platform.Uploaded, error) {
	return &platform.BaseUpload{G: g, Cl: cluster.New(cfg.ClusterConfig())}, nil
}
func (f *fake) Upload(g *graph.Graph, cfg platform.RunConfig) (platform.Uploaded, error) {
	return &platform.BaseUpload{G: g, Cl: cluster.New(cfg.ClusterConfig())}, nil
}
func (f *fake) Execute(ctx context.Context, up platform.Uploaded, a algorithms.Algorithm, p algorithms.Params) (*platform.Result, error) {
	return nil, nil
}

func TestRegistry(t *testing.T) {
	platform.Register(&fake{name: "zz-test-fake"})
	p, err := platform.Get("zz-test-fake")
	if err != nil || p.Name() != "zz-test-fake" {
		t.Fatalf("Get: %v", err)
	}
	if _, err := platform.Get("does-not-exist"); err == nil {
		t.Fatal("expected error for unknown platform")
	}
	found := false
	for _, n := range platform.Names() {
		if n == "zz-test-fake" {
			found = true
		}
	}
	if !found {
		t.Fatal("Names must include the registered platform")
	}
	if len(platform.All()) != len(platform.Names()) {
		t.Fatal("All and Names must agree")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration must panic")
		}
	}()
	platform.Register(&fake{name: "zz-dup"})
	platform.Register(&fake{name: "zz-dup"})
}

func TestRunConfigClusterConfig(t *testing.T) {
	cfg := platform.RunConfig{Threads: 3, Machines: 2, MemoryPerMachine: 99}
	cc := cfg.ClusterConfig()
	if cc.Threads != 3 || cc.Machines != 2 || cc.MemoryPerMachine != 99 {
		t.Fatalf("cluster config = %+v", cc)
	}
	if def := (platform.RunConfig{}).ClusterConfig(); def.Threads != 1 || def.Machines != 1 {
		t.Fatalf("zero config must normalize, got %+v", def)
	}
}

func TestCheckContext(t *testing.T) {
	if err := platform.CheckContext(context.Background()); err != nil {
		t.Fatalf("live context: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := platform.CheckContext(ctx); err == nil {
		t.Fatal("cancelled context must error")
	}
}

func TestNewResult(t *testing.T) {
	tr := granula.NewTracker("j", "p")
	tr.Begin(granula.PhaseProcess)
	time.Sleep(time.Millisecond)
	tr.End()
	cl := cluster.New(cluster.Config{Machines: 1})
	out := &algorithms.Output{Algorithm: algorithms.BFS, Int: []int64{0}}
	res := platform.NewResult(tr, cl, out)
	if res.ProcessingTime <= 0 || res.Makespan < res.ProcessingTime {
		t.Fatalf("result timings wrong: %+v", res)
	}
	if res.Output != out || res.Archive == nil {
		t.Fatal("result must carry output and archive")
	}
}
