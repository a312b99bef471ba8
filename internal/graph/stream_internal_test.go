package graph

import (
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

// The merge's read buffers share the budget: p workers × runs readers of
// mergeBufRecs records never exceed it unless every reader is at the
// one-record floor, and no buffer exceeds a page.
func TestMergeBufRecsWithinBudget(t *testing.T) {
	for _, budget := range []int64{1 << 12, 100_000, 1 << 20, 32 << 20, 1 << 40} {
		for _, p := range []int{1, 2, 3, 8, 64} {
			for _, runs := range []int{0, 1, 7, 94, 5000} {
				recs := mergeBufRecs(budget, p, runs)
				held := int64(p*runs*recs) * arcRecBytes
				switch {
				case recs < 1:
					t.Errorf("budget=%d p=%d runs=%d: %d records per reader, want >= 1", budget, p, runs, recs)
				case recs*arcRecBytes > spillPageBytes:
					t.Errorf("budget=%d p=%d runs=%d: %d-byte reader buffer exceeds a page", budget, p, runs, recs*arcRecBytes)
				case recs > 1 && held > budget:
					t.Errorf("budget=%d p=%d runs=%d: readers hold %d bytes", budget, p, runs, held)
				}
			}
		}
	}
}

// A merge opens every run once, whatever the worker count: each worker's
// readers share the run's *os.File. Its readers' buffers together stay
// within the budget (or the one-record floor), and the workers' sections
// tile every run exactly, each holding only its own vertices' records and
// no more than its share of them plus one vertex's.
func TestMergeSectionsShareRunsAndTile(t *testing.T) {
	const budget = 1 << 14
	b := NewBuilder(false, true)
	b.SetOptions(BuildOptions{DedupEdges: true, DropSelfLoops: true})
	b.SetSpill(SpillOptions{Dir: t.TempDir(), BudgetBytes: budget})
	defer b.spill.cleanup()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20000; i++ {
		b.AddWeightedEdge(rng.Int63n(3000), rng.Int63n(3000), 1)
	}
	if err := b.spill.flushBoth(); err != nil {
		t.Fatal(err)
	}
	ids, err := b.spillIDs()
	if err != nil {
		t.Fatal(err)
	}
	runs := b.spill.out.runs
	if len(runs) < 10 {
		t.Fatalf("%d runs, want many", len(runs))
	}
	if err := openSpillRuns(runs); err != nil {
		t.Fatal(err)
	}
	defer closeSpillRuns(runs)
	for _, p := range []int{1, 2, 8} {
		bounds, cuts, err := splitRuns(ids, runs, p)
		if err != nil {
			t.Fatal(err)
		}
		bufRecs := mergeBufRecs(budget, p, len(runs))
		var held, recs, maxDeg int64
		perWorker := make([]int64, p)
		for w := 0; w < p; w++ {
			h, err := newSections(runs, cuts[w], cuts[w+1], bufRecs)
			if err != nil {
				t.Fatal(err)
			}
			for _, rd := range h {
				held += int64(len(rd.buf))
				if !slices.ContainsFunc(runs, func(r runFile) bool { return r.f == rd.f }) {
					t.Fatalf("p=%d worker %d: a reader opened its own file", p, w)
				}
			}
			deg, prev := int64(0), int64(-1)
			for len(h) > 0 {
				rec, err := h.pop()
				if err != nil {
					t.Fatal(err)
				}
				if rec.key != prev {
					deg, prev = 0, rec.key
				}
				deg++
				maxDeg = max(maxDeg, deg)
				perWorker[w]++
				if rec.key < ids[bounds[w]] || (bounds[w+1] < len(ids) && rec.key >= ids[bounds[w+1]]) {
					t.Fatalf("p=%d worker %d: key %d outside vertices [%d, %d)", p, w, rec.key, bounds[w], bounds[w+1])
				}
				recs++
			}
		}
		for r := range runs {
			for w := 0; w < p; w++ {
				if cuts[w][r] > cuts[w+1][r] {
					t.Fatalf("p=%d run %d: sections out of order: %v", p, r, cuts)
				}
			}
			if cuts[0][r] != 0 || cuts[p][r] != runs[r].recs {
				t.Fatalf("p=%d run %d: sections cover [%d, %d), want [0, %d)", p, r, cuts[0][r], cuts[p][r], runs[r].recs)
			}
		}
		var want int64
		for _, r := range runs {
			want += r.recs
		}
		if recs != want {
			t.Fatalf("p=%d: merged %d records, want %d", p, recs, want)
		}
		for w, n := range perWorker {
			if n > want/int64(p)+maxDeg+1 {
				t.Errorf("p=%d worker %d: %d of %d records, want at most a share plus one vertex (%d)", p, w, n, want, maxDeg)
			}
		}
		if floor := int64(p*len(runs)) * arcRecBytes; held > max(budget, floor) {
			t.Errorf("p=%d: readers hold %d bytes against budget %d (floor %d)", p, held, budget, floor)
		}
	}
}
