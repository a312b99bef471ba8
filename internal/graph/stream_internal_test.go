package graph

import (
	"math/rand"
	"path/filepath"
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
