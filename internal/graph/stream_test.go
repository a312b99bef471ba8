package graph_test

import (
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"graphalytics/internal/graph"
	"graphalytics/internal/graph500"
	"graphalytics/internal/par"
)

// feedFixture drives the same deterministic edge stream into any builder.
func feedFixture(b *graph.Builder, edges int, weighted bool) {
	rng := rand.New(rand.NewSource(977))
	b.SetName("stream-fixture")
	b.AddVertex(5)
	b.AddVertex(1 << 40) // isolated
	for i := 0; i < edges; i++ {
		src, dst := rng.Int63n(400)*3, rng.Int63n(400)*3
		if weighted {
			b.AddWeightedEdge(src, dst, float64(i%97)/7)
		} else {
			b.AddEdge(src, dst)
		}
	}
}

// feedIDs adds edges between identifiers drawn by id.
func feedIDs(b *graph.Builder, weighted bool, edges int, id func(*rand.Rand) int64) {
	rng := rand.New(rand.NewSource(977))
	for i := 0; i < edges; i++ {
		src, dst := id(rng), id(rng)
		if weighted {
			b.AddWeightedEdge(src, dst, float64(i%97)/7)
		} else {
			b.AddEdge(src, dst)
		}
	}
}

// streamFixtures are the edge streams the equivalence test builds both
// ways. Past the random one they aim at the edge cases of the run sort
// and of the merge's key-range split.
var streamFixtures = []struct {
	name string
	feed func(b *graph.Builder, weighted bool)
}{
	{"random", func(b *graph.Builder, weighted bool) { feedFixture(b, 6000, weighted) }},
	// Negative ids order before non-negative ones only through the sign
	// flip of the radix key.
	{"negative", func(b *graph.Builder, weighted bool) {
		b.AddVertex(-1 << 40)
		feedIDs(b, weighted, 3000, func(rng *rand.Rand) int64 { return rng.Int63n(900) - 600 })
	}},
	// Ids of both signs with magnitudes >= 2^56 and the int64 extremes:
	// all eight digits vary.
	{"wide", func(b *graph.Builder, weighted bool) {
		rng := rand.New(rand.NewSource(31))
		pool := []int64{math.MinInt64, math.MaxInt64, 1 << 56, -1 << 56}
		for len(pool) < 300 {
			pool = append(pool, int64(rng.Uint64()))
		}
		feedIDs(b, weighted, 3000, func(rng *rand.Rand) int64 { return pool[rng.Intn(len(pool))] })
	}},
	// One hub: in a directed build the out-runs of the first half and the
	// in-runs of the second hold a single key, so every digit is skipped.
	{"star", func(b *graph.Builder, weighted bool) {
		const hub = 7
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 3000; i++ {
			src, dst := int64(hub), rng.Int63n(2000)+8
			if i >= 1500 {
				src, dst = dst, src
			}
			b.AddWeightedEdge(src, dst, float64(i%13))
		}
	}},
	// A single edge: single-record runs (two records undirected).
	{"one-edge", func(b *graph.Builder, weighted bool) {
		b.AddVertex(0)
		b.AddWeightedEdge(3, -3, 1.5)
	}},
	// Edges in ascending source order with nearby destinations: each run
	// covers its own key range, so most runs hold no record of a given
	// key range.
	{"sorted", func(b *graph.Builder, weighted bool) {
		rng := rand.New(rand.NewSource(17))
		for i := 0; i < 3000; i++ {
			src := int64(i / 3)
			b.AddWeightedEdge(src, src+1+rng.Int63n(4), float64(i%29))
		}
	}},
	// A hub near every eighth of the key space, each holding a large share
	// of the arcs, so key ranges end on or next to a hub key, and a hub
	// whose arcs alone exceed the budget is a range of its own.
	{"hubs", func(b *graph.Builder, weighted bool) {
		rng := rand.New(rand.NewSource(23))
		for i := 0; i < 3000; i++ {
			src, dst := rng.Int63n(800), rng.Int63n(800)
			if i%2 == 0 {
				src = 100*(1+rng.Int63n(7)) + rng.Int63n(3) - 1
			}
			b.AddWeightedEdge(src, dst, float64(i%31))
		}
	}},
}

func fileCRC(t *testing.T, path string) uint32 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return crc32.ChecksumIEEE(data)
}

// The tentpole determinism claim: BuildTo through spilled runs produces a
// byte-identical snapshot to the in-memory Build + WriteSnapshotFile at
// any spill budget. The tiny budgets force many runs and many key ranges,
// so range boundaries land everywhere; 1 << 12 is the one-page minimum.
func TestBuildToMatchesInMemoryBuild(t *testing.T) {
	for _, fx := range streamFixtures {
		t.Run(fx.name, func(t *testing.T) {
			for _, directed := range []bool{true, false} {
				for _, weighted := range []bool{true, false} {
					// Reference: in-memory build, written as v2.
					ref := graph.NewBuilder(directed, weighted)
					ref.SetOptions(graph.BuildOptions{DedupEdges: true, DropSelfLoops: true})
					fx.feed(ref, weighted)
					want, err := ref.Build()
					if err != nil {
						t.Fatal(err)
					}
					dir := t.TempDir()
					refPath := filepath.Join(dir, "ref.snap")
					if err := graph.WriteSnapshotFile(refPath, want); err != nil {
						t.Fatal(err)
					}
					wantCRC := fileCRC(t, refPath)

					for _, budget := range []int64{1 << 12, 3 << 11, 1 << 13, 1 << 14, 1 << 16, 1 << 20} {
						b := graph.NewBuilder(directed, weighted)
						b.SetOptions(graph.BuildOptions{DedupEdges: true, DropSelfLoops: true})
						b.SetSpill(graph.SpillOptions{Dir: dir, BudgetBytes: budget})
						fx.feed(b, weighted)
						got := filepath.Join(dir, "got.snap")
						if err := b.BuildTo(got); err != nil {
							t.Fatalf("directed=%v weighted=%v budget=%d: %v",
								directed, weighted, budget, err)
						}
						if crc := fileCRC(t, got); crc != wantCRC {
							t.Fatalf("directed=%v weighted=%v budget=%d: snapshot CRC %08x, want %08x",
								directed, weighted, budget, crc, wantCRC)
						}
						g, err := graph.ReadSnapshotFile(got)
						if err != nil {
							t.Fatal(err)
						}
						assertGraphsEqual(t, g, want)
					}
				}
			}
		})
	}
}

// Key ranges build on several workers: at scale 13 with a 4 MiB budget
// every range but the last, the remainder, holds more than 2·par.MinGrain
// arcs, so at GOMAXPROCS >= 2 the run reads and buildCSR fan out over
// workers within a range, and the snapshot must still be Build's,
// directed and undirected. CI runs this under the race detector at
// GOMAXPROCS=4.
func TestBuildToRangesOnSeveralWorkers(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	for _, directed := range []bool{false, true} {
		cfg := graph500.Config{Scale: 13, Seed: 13, Weighted: true, Directed: directed}
		g, err := graph500.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		refPath := filepath.Join(dir, "ref.snap")
		if err := graph.WriteSnapshotFile(refPath, g); err != nil {
			t.Fatal(err)
		}
		b := graph.NewBuilder(directed, true).SetSpill(graph.SpillOptions{Dir: dir, BudgetBytes: 4 << 20})
		if err := graph500.Into(cfg, b); err != nil {
			t.Fatal(err)
		}
		arcs := b.SpillRangeArcs(t)
		t.Logf("directed=%v: key ranges of %v arcs", directed, arcs)
		if len(arcs) < 2 {
			t.Fatalf("directed=%v: %d key ranges, want several", directed, len(arcs))
		}
		for k, a := range arcs[:len(arcs)-1] {
			if a <= 2*par.MinGrain {
				t.Fatalf("directed=%v: range %d holds %d arcs, too few for a second worker", directed, k, a)
			}
		}
		path := filepath.Join(dir, "got.snap")
		if err := b.BuildTo(path); err != nil {
			t.Fatal(err)
		}
		if got, want := fileCRC(t, path), fileCRC(t, refPath); got != want {
			t.Fatalf("directed=%v: snapshot CRC %08x, want Build's %08x", directed, got, want)
		}
	}
}

// The streamed path allocates per run, never per edge: ten times the
// edges through the same budget means ten times the runs and about ten
// times a small per-run count, not the millions of objects one per record
// per pass came to.
func TestBuildToAllocsIndependentOfEdges(t *testing.T) {
	build := func(edgeFactor int) (allocs uint64, runs int) {
		dir := t.TempDir()
		b := graph.NewBuilder(false, true).SetSpill(graph.SpillOptions{Dir: dir, BudgetBytes: 64 << 10})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := graph500.Into(graph500.Config{Scale: 10, EdgeFactor: edgeFactor, Seed: 3, Weighted: true}, b); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		allocs = after.Mallocs - before.Mallocs
		spills, err := filepath.Glob(filepath.Join(dir, "*", "run-*"))
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&before)
		if err := b.BuildTo(filepath.Join(t.TempDir(), "g.snap")); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return allocs + after.Mallocs - before.Mallocs, len(spills)
	}
	// Per run: the run file and the sort fan-out; per key range, which
	// are about as many as runs: the cut search, the reads and buildCSR's
	// fan-out; fixed: the identifier table and index, the section files.
	const perRun, fixed = 64, 1000
	for _, ef := range []int{4, 40} {
		allocs, runs := build(ef)
		t.Logf("edge factor %d: %d runs, %d allocations", ef, runs, allocs)
		if allocs > perRun*uint64(runs)+fixed {
			t.Errorf("edge factor %d: %d allocations for %d runs, want <= %d·runs + %d",
				ef, allocs, runs, perRun, fixed)
		}
	}
}

// A 4 KiB budget over 6000 edges spills dozens of runs; the spill path
// must actually be taken (no silent fall-back to in-memory building).
func TestBuildToSpillsMultipleRuns(t *testing.T) {
	b := graph.NewBuilder(false, true)
	b.SetOptions(graph.BuildOptions{DedupEdges: true, DropSelfLoops: true})
	b.SetSpill(graph.SpillOptions{BudgetBytes: 1 << 12})
	if !b.Spilling() {
		t.Fatal("builder not on the spill path")
	}
	feedFixture(b, 6000, true)
	// 6000 undirected edges = 12000 arc records of 32 bytes = 375 KiB of
	// records against a 4 KiB buffer: at least 3 runs is guaranteed by
	// arithmetic, in practice ~94.
	if err := b.BuildTo(filepath.Join(t.TempDir(), "g.snap")); err != nil {
		t.Fatal(err)
	}
}

func TestBuildToWithoutSpillEqualsBuild(t *testing.T) {
	mk := func() *graph.Builder {
		b := graph.NewBuilder(true, true)
		b.SetOptions(graph.BuildOptions{DedupEdges: true, DropSelfLoops: true})
		feedFixture(b, 2000, true)
		return b
	}
	want, err := mk().Build()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.snap")
	if err := graph.WriteSnapshotFile(refPath, want); err != nil {
		t.Fatal(err)
	}
	gotPath := filepath.Join(dir, "got.snap")
	if err := mk().BuildTo(gotPath); err != nil {
		t.Fatal(err)
	}
	if fileCRC(t, gotPath) != fileCRC(t, refPath) {
		t.Fatal("BuildTo without spill differs from Build + WriteSnapshotFile")
	}
}

// Strict-mode violations surface with the same sentinel errors as the
// in-memory path.
func TestBuildToStrictErrors(t *testing.T) {
	t.Run("self-loop", func(t *testing.T) {
		b := graph.NewBuilder(false, false)
		b.SetSpill(graph.SpillOptions{BudgetBytes: 1 << 12})
		b.AddEdge(1, 2)
		b.AddEdge(7, 7)
		err := b.BuildTo(filepath.Join(t.TempDir(), "g.snap"))
		if !errors.Is(err, graph.ErrSelfLoop) {
			t.Fatalf("err = %v, want ErrSelfLoop", err)
		}
	})
	t.Run("duplicate", func(t *testing.T) {
		b := graph.NewBuilder(false, false)
		b.SetSpill(graph.SpillOptions{BudgetBytes: 1 << 12})
		b.AddEdge(1, 2)
		b.AddEdge(2, 1) // same undirected edge
		err := b.BuildTo(filepath.Join(t.TempDir(), "g.snap"))
		if !errors.Is(err, graph.ErrDuplicateEdge) {
			t.Fatalf("err = %v, want ErrDuplicateEdge", err)
		}
	})
	// Duplicates planted in the first and last quarters of the key space
	// fall to different key ranges below the largest budget; the reported
	// one must be Build's, the lowest vertex's, at every budget. Undirected
	// builds get the repeats reversed, which the message names smaller id
	// first.
	t.Run("duplicate-ranges", func(t *testing.T) {
		feed := func(b *graph.Builder, dups [][2]int64, reverse bool) {
			rng := rand.New(rand.NewSource(3))
			for _, i := range rng.Perm(4000) {
				b.AddEdge(int64(i), int64(i+1))
			}
			for _, d := range dups {
				if reverse {
					d[0], d[1] = d[1], d[0]
				}
				b.AddEdge(d[0], d[1])
			}
		}
		for _, directed := range []bool{true, false} {
			for _, dups := range [][][2]int64{{{3500, 3501}, {500, 501}}, {{3500, 3501}}} {
				ref := graph.NewBuilder(directed, false)
				feed(ref, dups, !directed)
				_, want := ref.Build()
				if !errors.Is(want, graph.ErrDuplicateEdge) {
					t.Fatalf("Build: err = %v, want ErrDuplicateEdge", want)
				}
				for _, budget := range []int64{1 << 12, 1 << 14, 1 << 20} {
					b := graph.NewBuilder(directed, false)
					b.SetSpill(graph.SpillOptions{Dir: t.TempDir(), BudgetBytes: budget})
					feed(b, dups, !directed)
					err := b.BuildTo(filepath.Join(t.TempDir(), "g.snap"))
					if err == nil || err.Error() != want.Error() {
						t.Errorf("directed=%v dups=%v budget=%d: err = %v, want %q", directed, dups, budget, err, want)
					}
				}
			}
		}
	})
}

// Dropped self-loops still register their endpoint as a vertex, exactly
// like the in-memory path (collectIDs sees every endpoint).
func TestBuildToDroppedSelfLoopKeepsVertex(t *testing.T) {
	build := func(spill bool) *graph.Graph {
		b := graph.NewBuilder(true, false)
		b.SetOptions(graph.BuildOptions{DropSelfLoops: true, DedupEdges: true})
		if spill {
			b.SetSpill(graph.SpillOptions{BudgetBytes: 1 << 12})
		}
		b.AddEdge(1, 2)
		b.AddEdge(9, 9) // dropped, but 9 must still be a vertex
		if !spill {
			g, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
		path := filepath.Join(t.TempDir(), "g.snap")
		if err := b.BuildTo(path); err != nil {
			t.Fatal(err)
		}
		g, err := graph.ReadSnapshotFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	assertGraphsEqual(t, build(true), build(false))
}

func TestBuildOnSpillBuilderFails(t *testing.T) {
	b := graph.NewBuilder(false, false)
	b.SetSpill(graph.SpillOptions{})
	b.AddEdge(1, 2)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build on a spill-configured builder succeeded")
	}
}

// The scratch directory must not leak run or section files.
func TestBuildToCleansScratch(t *testing.T) {
	scratch := t.TempDir()
	b := graph.NewBuilder(false, true)
	b.SetOptions(graph.BuildOptions{DedupEdges: true, DropSelfLoops: true})
	b.SetSpill(graph.SpillOptions{Dir: scratch, BudgetBytes: 1 << 12})
	feedFixture(b, 3000, true)
	out := filepath.Join(t.TempDir(), "g.snap")
	if err := b.BuildTo(out); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(scratch)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("scratch dir still holds %d entries after BuildTo", len(ents))
	}
}
