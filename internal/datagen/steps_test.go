package datagen

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"graphalytics/internal/xrand"
)

// sortEdges' packed words order edges as a comparison on (src, dst) does,
// negative and extreme endpoints included, at sizes either side of the
// radix sort's cutoff.
func TestSortEdgesMatchesPairOrder(t *testing.T) {
	rng := xrand.New(3)
	for _, n := range []int{0, 1, 100, 5000} {
		edges := make([]rawEdge, n)
		for i := range edges {
			edges[i] = rawEdge{src: int32(rng.Uint64()%64) - 32, dst: int32(rng.Uint64())}
			switch i % 7 {
			case 1:
				edges[i].dst = math.MinInt32
			case 2:
				edges[i].dst = math.MaxInt32
			case 3:
				edges[i] = edges[i-1]
			}
		}
		want := slices.Clone(edges)
		slices.SortFunc(want, func(a, b rawEdge) int {
			return cmp.Or(cmp.Compare(a.src, b.src), cmp.Compare(a.dst, b.dst))
		})
		sortEdges(edges)
		if !slices.Equal(edges, want) {
			t.Fatalf("%d edges: sortEdges order differs from the (src, dst) comparison", n)
		}
	}
}
