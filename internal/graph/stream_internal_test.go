package graph

import (
	"cmp"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
)

// The spill buffers and the radix scratch together never hold more than
// BudgetBytes, at any point of a build that flushes many times: they are
// allocated once at exact capacity, never grown by append.
func TestSpillBuffersWithinBudget(t *testing.T) {
	for _, directed := range []bool{false, true} {
		for _, budget := range []int64{1 << 12, 100_000, 1 << 20} {
			b := NewBuilder(directed, true)
			b.SetOptions(BuildOptions{DedupEdges: true, DropSelfLoops: true})
			b.SetSpill(SpillOptions{Dir: t.TempDir(), BudgetBytes: budget})
			sp := b.spill
			rng := rand.New(rand.NewSource(5))
			var peak int64
			for i := int64(0); i < 4*budget/arcRecBytes; i++ {
				b.AddWeightedEdge(rng.Int63n(5000), rng.Int63n(5000), 1)
				held := int64(cap(sp.out.buf)+cap(sp.in.buf)+cap(sp.scratch)) * arcRecBytes
				peak = max(peak, held)
			}
			if runs := len(sp.out.runs); runs < 3 {
				t.Fatalf("directed=%v budget=%d: %d runs, want several flushes", directed, budget, runs)
			}
			if peak > budget {
				t.Errorf("directed=%v budget=%d: buffers + scratch held %d bytes (%.2f×)",
					directed, budget, peak, float64(peak)/float64(budget))
			}
			if err := b.BuildTo(filepath.Join(t.TempDir(), "g.snap")); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// Grow before SetSpill reserves edge capacity for an in-memory build. A
// spilling builder never holds its edges, so SetSpill releases it: the
// bounded-memory path keeps no O(edges) buffer.
func TestSetSpillAfterGrowReleasesEdges(t *testing.T) {
	b := NewBuilder(false, true)
	b.Grow(16, 1<<16)
	if cap(b.edges) < 1<<16 {
		t.Fatalf("Grow reserved %d edges, want %d", cap(b.edges), 1<<16)
	}
	b.SetSpill(SpillOptions{Dir: t.TempDir(), BudgetBytes: 1 << 12})
	if b.edges != nil {
		t.Fatalf("after SetSpill the builder keeps an edge buffer of capacity %d", cap(b.edges))
	}
	b.AddEdge(1, 2)
	if err := b.BuildTo(filepath.Join(t.TempDir(), "g.snap")); err != nil {
		t.Fatal(err)
	}
	if b.edges != nil {
		t.Fatalf("after BuildTo the builder keeps an edge buffer of capacity %d", cap(b.edges))
	}
}

// spillRanges flushes the builder's buffers, as BuildTo does, and returns
// its identifier table, its out-spool's runs and the key ranges BuildTo
// cuts them into: range k holds the vertices [bounds[k], bounds[k+1]) and
// the records [cuts[k][r], cuts[k+1][r]) of run r.
func spillRanges(t testing.TB, b *Builder) (ids []int64, runs []runFile, bounds []int, cuts [][]int64) {
	t.Helper()
	t.Cleanup(b.spill.cleanup)
	if err := b.spill.flushBoth(); err != nil {
		t.Fatal(err)
	}
	ids, err := b.spillIDs()
	if err != nil {
		t.Fatal(err)
	}
	runs = b.spill.out.runs
	if err := openSpillRuns(runs); err != nil {
		t.Fatal(err)
	}
	defer closeSpillRuns(runs)
	bounds, cuts = []int{0}, [][]int64{make([]int64, len(runs))}
	for lo, guess := 0, 0; lo < len(ids); {
		hi, to, err := nextRange(ids, runs, lo, guess, cuts[len(cuts)-1], b.rangeFits)
		if err != nil {
			t.Fatal(err)
		}
		bounds, cuts = append(bounds, hi), append(cuts, to)
		lo, guess = hi, hi-lo
	}
	return ids, runs, bounds, cuts
}

// bytes is what the store's arrays hold.
func (st *rangeStore) bytes() int64 {
	c := &st.csr
	n := 4*(cap(st.keys)+cap(st.vals)+cap(c.adj)+cap(c.nadj)+cap(c.dups)) +
		8*(cap(st.ws)+cap(c.w)+cap(c.nw)+cap(c.off)+cap(c.noff)) + cap(st.buf)
	for _, row := range c.counts {
		n += 4 * cap(row)
	}
	return int64(n)
}

// BuildTo's key ranges tile every run: they ascend from the first vertex
// to the last, each run's slices meet end to end from its first record to
// its last, and every record of a range is keyed by one of its vertices
// (readRange fails on any other). Built on a store of its own, a range
// holds no more than rangeBytes, and that fits the budget unless the
// range is a single vertex; every range but the last would not fit with
// the next vertex added. A hub with a quarter of the edges is its own
// range at the small budgets.
func TestRangesTileRunsWithinBudget(t *testing.T) {
	for _, budget := range []int64{4 << 10, 16 << 10, 1 << 20} {
		b := NewBuilder(false, true)
		b.SetOptions(BuildOptions{DedupEdges: true, DropSelfLoops: true})
		b.SetSpill(SpillOptions{Dir: t.TempDir(), BudgetBytes: budget})
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 20000; i++ {
			src := rng.Int63n(3000)
			if i%4 == 0 {
				src = 1500
			}
			b.AddWeightedEdge(src, rng.Int63n(3000), 1)
		}
		ids, runs, bounds, cuts := spillRanges(t, b)
		if err := openSpillRuns(runs); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { closeSpillRuns(runs) })
		index := idIndex(ids)
		deg := make([]int64, len(ids))
		oversized := 0
		for k := 0; k+1 < len(bounds); k++ {
			lo, hi := bounds[k], bounds[k+1]
			if lo >= hi {
				t.Fatalf("budget=%d range %d: vertices [%d, %d)", budget, k, lo, hi)
			}
			var arcs int64
			for r := range runs {
				if cuts[k][r] > cuts[k+1][r] {
					t.Fatalf("budget=%d run %d: range %d ends at record %d before it starts at %d", budget, r, k, cuts[k+1][r], cuts[k][r])
				}
				arcs += cuts[k+1][r] - cuts[k][r]
			}
			st := new(rangeStore)
			keys, vals, ws, err := b.readRange(ids[lo:hi], index, runs, cuts[k], cuts[k+1], st)
			if err != nil {
				t.Fatalf("budget=%d range %d: %v", budget, k, err)
			}
			for _, key := range keys {
				deg[lo+int(key)]++
			}
			if _, _, _, err := b.buildCSR(ids[lo:hi], ids, keys, vals, ws, false, &st.csr); err != nil {
				t.Fatal(err)
			}
			need := b.rangeBytes(arcs, hi-lo)
			if held := st.bytes(); held > need {
				t.Errorf("budget=%d range %d: its arrays hold %d bytes, rangeBytes counts %d", budget, k, held, need)
			}
			if need > budget {
				oversized++
				if hi-lo > 1 {
					t.Errorf("budget=%d range %d: %d vertices and %d arcs need %d bytes", budget, k, hi-lo, arcs, need)
				}
			}
		}
		last := len(bounds) - 1
		if bounds[0] != 0 || bounds[last] != len(ids) {
			t.Fatalf("budget=%d: ranges cover vertices [%d, %d), want [0, %d)", budget, bounds[0], bounds[last], len(ids))
		}
		for r := range runs {
			if cuts[0][r] != 0 || cuts[last][r] != runs[r].recs {
				t.Fatalf("budget=%d run %d: ranges cover records [%d, %d), want [0, %d)", budget, r, cuts[0][r], cuts[last][r], runs[r].recs)
			}
		}
		for k := 0; k+1 < last; k++ {
			lo, hi := bounds[k], bounds[k+1]
			var arcs int64
			for _, d := range deg[lo : hi+1] {
				arcs += d
			}
			if b.rangeFits(arcs, hi+1-lo) {
				t.Errorf("budget=%d range %d: vertices [%d, %d) would still fit with the next one", budget, k, lo, hi)
			}
		}
		if wantHub := budget < 1<<20; (oversized > 0) != wantHub {
			t.Errorf("budget=%d: %d ranges over budget, want a hub alone: %v", budget, oversized, wantHub)
		}
		t.Logf("budget=%d: %d runs, %d ranges", budget, len(runs), last)
	}
}

// radixSort's output is the same at any worker count, and stable: sorted
// by key, with equal keys in input order. The keys span both signs and
// every digit.
func TestRadixSortStableAtAnyWorkerCount(t *testing.T) {
	forceWorkers(t, 8)
	rng := rand.New(rand.NewSource(11))
	pool := []int64{math.MinInt64, math.MaxInt64, 0, -1, 1 << 56}
	for len(pool) < 500 {
		pool = append(pool, int64(rng.Uint64()))
	}
	in := make([]arcRec, 40000)
	for i := range in {
		in[i] = arcRec{key: pool[rng.Intn(len(pool))], val: int64(i), w: float64(i)}
	}
	want := slices.Clone(in)
	slices.SortStableFunc(want, func(a, b arcRec) int { return cmp.Compare(a.key, b.key) })
	for _, p := range []int{1, 2, 8} {
		recs := slices.Clone(in)
		got, _ := radixSort(recs, make([]arcRec, len(recs)), make([][256]int, p))
		if !slices.Equal(got, want) {
			t.Fatalf("%d histograms: radixSort differs from a stable sort by key", p)
		}
	}
}
