package graph

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// probes is how many slots get inspects to find id.
func probes(t *idTable, id int64) int {
	n := 1
	for s := t.slot(id); t.vals[s] == 0 || t.keys[s] != id; s = (s + 1) & t.mask {
		n++
	}
	return n
}

// The identifier table agrees with a binary search over the sorted ids for
// every present id, reports absent ids as missing, and keeps probe chains
// short on the id sets a weak hash would cluster: dense ranges and
// multiples of large powers of two.
func TestIDTable(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	seq := func(n int, f func(i int) int64) []int64 {
		ids := make([]int64, n)
		for i := range ids {
			ids[i] = f(i)
		}
		return ids
	}
	sets := []struct {
		name     string
		ids      []int64
		maxProbe int
	}{
		{"empty", nil, 0},
		{"single", []int64{42}, 1},
		{"extremes", []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}, 4},
		{"negative", seq(5000, func(i int) int64 { return int64(i)*3 - 20000 }), 4},
		{"dense", seq(1<<17, func(i int) int64 { return int64(i) }), 4},
		{"multiples-2^16", seq(50000, func(i int) int64 { return int64(i-25000) << 16 }), 4},
		{"multiples-2^32", seq(50000, func(i int) int64 { return int64(i-25000) << 32 }), 8},
		{"random", seq(50000, func(int) int64 { return int64(rng.Uint64()) }), 32},
	}
	for _, set := range sets {
		t.Run(set.name, func(t *testing.T) {
			ids := slices.Compact(slices.Sorted(slices.Values(set.ids)))
			tab := idIndex(ids)
			if len(tab.keys) < 2*len(ids) {
				t.Fatalf("%d slots for %d ids: more than half full", len(tab.keys), len(ids))
			}
			longest, total := 0, 0
			for i, id := range ids {
				v, ok := tab.get(id)
				if want := sort.Search(len(ids), func(j int) bool { return ids[j] >= id }); !ok || int(v) != want || want != i {
					t.Fatalf("get(%d) = %d, %v; want %d", id, v, ok, want)
				}
				n := probes(tab, id)
				longest, total = max(longest, n), total+n
			}
			if longest > set.maxProbe {
				t.Errorf("longest probe chain %d, want <= %d", longest, set.maxProbe)
			}
			if len(ids) > 0 {
				t.Logf("%d ids: mean probes %.2f, longest %d", len(ids), float64(total)/float64(len(ids)), longest)
			}
			// Neighbours of present ids, and a few fixed values, are absent
			// unless they are ids themselves.
			absent := []int64{math.MinInt64, -1, 0, 1, 7, math.MaxInt64}
			for _, id := range ids[:min(len(ids), 1000)] {
				absent = append(absent, id-1, id+1, id^1<<40)
			}
			for _, id := range absent {
				_, present := slices.BinarySearch(ids, id)
				if v, ok := tab.get(id); ok != present || (!ok && v != -1) {
					t.Fatalf("get(%d) = %d, %v; present %v", id, v, ok, present)
				}
			}
		})
	}
}
