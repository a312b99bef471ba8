package core_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/core"
	"graphalytics/internal/platform"
)

// bitsPlatform wraps a registered engine and records a digest of the
// output bits of every job it executes, keyed by dataset, deployment and
// algorithm. It forwards everything else, so its jobs run on the
// engine's own scratch pool.
type bitsPlatform struct {
	platform.Platform
	name string
	mu   sync.Mutex
	bits map[string]uint64
}

var (
	bitsOnce sync.Once
	bitsReg  *bitsPlatform
)

// registerBits registers (once) a bitsPlatform over pregel and empties
// its record.
func registerBits(t *testing.T) *bitsPlatform {
	t.Helper()
	bitsOnce.Do(func() {
		base, err := platform.Get("pregel")
		if err != nil {
			t.Fatal(err)
		}
		bitsReg = &bitsPlatform{Platform: base, name: "bits-pregel"}
		platform.Register(bitsReg)
	})
	bitsReg.mu.Lock()
	bitsReg.bits = map[string]uint64{}
	bitsReg.mu.Unlock()
	return bitsReg
}

func (b *bitsPlatform) Name() string { return b.name }

func (b *bitsPlatform) Execute(ctx context.Context, up platform.Uploaded, a algorithms.Algorithm, p algorithms.Params) (*platform.Result, error) {
	res, err := b.Platform.Execute(ctx, up, a, p)
	if err != nil {
		return res, err
	}
	h := fnv.New64a()
	var word [8]byte
	add := func(x uint64) {
		for i := range word {
			word[i] = byte(x >> (8 * i))
		}
		h.Write(word[:])
	}
	for _, x := range res.Output.Int {
		add(uint64(x))
	}
	for _, x := range res.Output.Float {
		add(math.Float64bits(x))
	}
	cl := up.Cluster()
	key := fmt.Sprintf("%s t%d-m%d %s", up.Graph().Name(), cl.Threads(), cl.Machines(), a)
	b.mu.Lock()
	b.bits[key] = h.Sum64()
	b.mu.Unlock()
	return res, nil
}

// TestConcurrentJobsShareArenasBitForBit runs one engine's jobs on four
// datasets of different sizes, directed and undirected, weighted and not,
// on one and two machines, with one job at a time and with four at once.
// The engine keeps one scratch pool for its lifetime, so at four the
// concurrent jobs check arenas out of it side by side and each picks up
// arenas another graph or deployment grew; every output bit must be the
// one-at-a-time run's.
func TestConcurrentJobsShareArenasBitForBit(t *testing.T) {
	b := registerBits(t)
	plan, err := core.CompileSpec(core.BenchSpec{
		Name:       "arenas",
		Platforms:  []string{b.name},
		Datasets:   core.DatasetSelector{IDs: []string{"R1", "R2", "R3", "R4"}},
		Algorithms: algorithms.All,
		Configs:    []core.ResourceSpec{{Threads: 2, Machines: 1}, {Threads: 2, Machines: 2}},
		SLA:        core.Duration(2 * time.Minute),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var runs []map[string]uint64
	for _, workers := range []int{1, 4} {
		b.mu.Lock()
		b.bits = map[string]uint64{}
		b.mu.Unlock()
		results, err := core.NewSession(core.WithParallelism(workers), core.WithValidation(false)).RunPlan(context.Background(), plan)
		if err != nil {
			t.Fatalf("parallelism %d: %v", workers, err)
		}
		for _, r := range results {
			if r.Status != core.StatusOK && r.Status != core.StatusUnsupported {
				t.Fatalf("parallelism %d: %s/%s/%s: %s %s", workers, r.Spec.Platform, r.Spec.Dataset, r.Spec.Algorithm, r.Status, r.Error)
			}
		}
		b.mu.Lock()
		runs = append(runs, maps.Clone(b.bits))
		b.mu.Unlock()
	}
	one, four := runs[0], runs[1]
	if len(one) == 0 {
		t.Fatal("no job produced an output")
	}
	for _, key := range slices.Sorted(maps.Keys(one)) {
		if got, ok := four[key]; !ok {
			t.Errorf("%s: no output at parallelism 4", key)
		} else if got != one[key] {
			t.Errorf("%s: output bits at parallelism 4 differ from parallelism 1", key)
		}
	}
	if len(four) != len(one) {
		t.Errorf("%d outputs at parallelism 4, %d at parallelism 1", len(four), len(one))
	}
}
