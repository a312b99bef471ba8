package graph

import (
	"encoding/binary"
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
// every present id and reports absent ids as missing. The ids 0..n-1 need
// no table; every other set is hashed, and a hashed table keeps probe
// chains short on the id sets a weak hash would cluster: consecutive
// ranges and multiples of large powers of two.
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
		{"dense-shifted", seq(1<<17, func(i int) int64 { return int64(i) + 1 }), 4},
		{"multiples-2^16", seq(50000, func(i int) int64 { return int64(i-25000) << 16 }), 4},
		{"multiples-2^32", seq(50000, func(i int) int64 { return int64(i-25000) << 32 }), 8},
		{"random", seq(50000, func(int) int64 { return int64(rng.Uint64()) }), 32},
	}
	for _, set := range sets {
		t.Run(set.name, func(t *testing.T) {
			ids := slices.Compact(slices.Sorted(slices.Values(set.ids)))
			tab := idIndex(ids)
			dense := len(ids) == 0 || ids[0] == 0 && ids[len(ids)-1] == int64(len(ids)-1)
			if hashed := tab.keys != nil; hashed == dense {
				t.Fatalf("hashed table %v for ids 0..n-1 %v", hashed, dense)
			}
			if !dense && len(tab.keys) < 2*len(ids) {
				t.Fatalf("%d slots for %d ids: more than half full", len(tab.keys), len(ids))
			}
			longest, total := 0, 0
			for i, id := range ids {
				v, ok := tab.get(id)
				if want := sort.Search(len(ids), func(j int) bool { return ids[j] >= id }); !ok || int(v) != want || want != i {
					t.Fatalf("get(%d) = %d, %v; want %d", id, v, ok, want)
				}
				if !dense {
					n := probes(tab, id)
					longest, total = max(longest, n), total+n
				}
			}
			if longest > set.maxProbe {
				t.Errorf("longest probe chain %d, want <= %d", longest, set.maxProbe)
			}
			if !dense && len(ids) > 0 {
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

// fuzzIDs decodes an identifier set of the kind the table distinguishes,
// sorted and distinct: the ids 0..n-1 (kind 0), with the one id x mod n
// missing (1), shifted up or down by one (2), with the one id x added (3),
// or the little-endian words of data and x (4).
func fuzzIDs(kind byte, n int, x int64, data []byte) []int64 {
	ids := make([]int64, 0, n+len(data)/8+1)
	if kind%5 == 4 {
		for ; len(data) >= 8; data = data[8:] {
			ids = append(ids, int64(binary.LittleEndian.Uint64(data)))
		}
		ids = append(ids, x)
	} else {
		for i := range n {
			ids = append(ids, int64(i))
		}
	}
	switch kind % 5 {
	case 1:
		if n > 0 {
			hole := int(uint64(x) % uint64(n))
			ids = slices.Delete(ids, hole, hole+1)
		}
	case 2:
		shift := int64(1)
		if x < 0 {
			shift = -1
		}
		for i := range ids {
			ids[i] += shift
		}
	case 3:
		ids = append(ids, x)
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// FuzzIDTable holds the identifier table, dense or hashed, to a binary
// search over the sorted ids, for every id and both its neighbours.
func FuzzIDTable(f *testing.F) {
	for kind := range byte(5) {
		f.Add(kind, uint16(300), int64(-7), []byte("\x01\x00\x00\x00\x00\x00\x00\x80\xff\xff\xff\xff\xff\xff\xff\x7f"))
	}
	f.Add(byte(0), uint16(0), int64(0), []byte(nil))
	f.Add(byte(3), uint16(1000), int64(1)<<40, []byte(nil))
	f.Fuzz(func(t *testing.T, kind byte, n uint16, x int64, data []byte) {
		ids := fuzzIDs(kind, int(n), x, data)
		tab := idIndex(ids)
		check := func(id int64) {
			want, present := slices.BinarySearch(ids, id)
			v, ok := tab.get(id)
			if ok != present || (ok && int(v) != want) || (!ok && v != -1) {
				t.Fatalf("kind %d, %d ids: get(%d) = %d, %v; want %d, %v", kind%5, len(ids), id, v, ok, want, present)
			}
		}
		for _, id := range ids {
			check(id - 1)
			check(id)
			check(id + 1)
		}
		check(x)
	})
}
