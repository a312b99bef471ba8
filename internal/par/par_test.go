package par

import (
	"cmp"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
)

// forceProcs raises GOMAXPROCS so parallel paths run multi-worker even on
// single-core CI machines, restoring it afterwards.
func forceProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestWorkers(t *testing.T) {
	forceProcs(t, 8)
	cases := []struct{ work, want int }{
		{0, 1},
		{1, 1},
		{MinGrain - 1, 1},
		{2 * MinGrain, 2},
		{100 * MinGrain, 8}, // capped by GOMAXPROCS
	}
	for _, tc := range cases {
		if got := Workers(tc.work); got != tc.want {
			t.Errorf("Workers(%d) = %d, want %d", tc.work, got, tc.want)
		}
	}
}

func TestResolve(t *testing.T) {
	forceProcs(t, 8)
	if got := Resolve(0, 100*MinGrain); got != 8 {
		t.Errorf("Resolve(0, big) = %d, want 8", got)
	}
	if got := Resolve(3, 10); got != 3 {
		t.Errorf("explicit workers must be honored: got %d, want 3", got)
	}
	if got := Resolve(-1, 10); got != 1 {
		t.Errorf("Resolve(-1, small) = %d, want 1", got)
	}
}

func TestChunkRangeCoversExactly(t *testing.T) {
	for _, n := range []int{0, 1, 5, 100, 1001} {
		for _, p := range []int{1, 2, 3, 7, 16} {
			covered := 0
			prevHi := 0
			for w := 0; w < p; w++ {
				lo, hi := ChunkRange(n, p, w)
				if lo != prevHi {
					t.Fatalf("n=%d p=%d w=%d: chunk starts at %d, want %d", n, p, w, lo, prevHi)
				}
				covered += hi - lo
				prevHi = hi
			}
			if covered != n || prevHi != n {
				t.Fatalf("n=%d p=%d: chunks cover %d ending at %d", n, p, covered, prevHi)
			}
		}
	}
}

func TestChunksVisitsEveryIndexOnce(t *testing.T) {
	for _, p := range []int{1, 2, 4, 9} {
		const n = 1000
		seen := make([]int32, n)
		Chunks(n, p, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				seen[i]++ // chunks are disjoint, so no data race
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("p=%d: index %d visited %d times", p, i, c)
			}
		}
	}
}

func TestChunksMoreWorkersThanElements(t *testing.T) {
	var visited atomic.Int64
	Chunks(2, 16, func(_, lo, hi int) { visited.Add(int64(hi - lo)) })
	if visited.Load() != 2 {
		t.Fatalf("visited %d elements, want 2", visited.Load())
	}
	called := false
	Chunks(0, 4, func(_, _, _ int) { called = true })
	if called {
		t.Fatal("empty range must not invoke fn")
	}
}

func TestAccumulateOrderedReduction(t *testing.T) {
	// Each worker returns its chunk bounds; the result must be indexed by
	// chunk, not by completion order.
	const n = 977
	for _, p := range []int{1, 2, 5} {
		parts := Accumulate(n, p, func(w, lo, hi int) [2]int { return [2]int{lo, hi} })
		if len(parts) != p {
			t.Fatalf("p=%d: got %d parts", p, len(parts))
		}
		for w, part := range parts {
			lo, hi := ChunkRange(n, p, w)
			if lo == hi {
				continue // empty chunk keeps the zero value
			}
			if part != [2]int{lo, hi} {
				t.Fatalf("p=%d w=%d: part %v, want [%d %d]", p, w, part, lo, hi)
			}
		}
	}
}

// TestSumBlockedWorkerInvariance is the determinism contract: the blocked
// sum must be bit-identical at every worker count.
func TestSumBlockedWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 3*SumBlock + 791
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	sum := func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			s += vals[i]
		}
		return s
	}
	want := SumBlocked(n, 1, sum)
	for _, p := range []int{2, 3, 8, 64} {
		if got := SumBlocked(n, p, sum); got != want {
			t.Fatalf("p=%d: SumBlocked = %x, want %x (bit-identical)", p, got, want)
		}
	}
	if got := SumBlocked(0, 4, sum); got != 0 {
		t.Fatalf("empty sum = %v, want 0", got)
	}
}

// TestSumBlocksIsSumBlockedAtAnyBlockLength holds SumBlocks to SumBlocked
// at SumBlock, whatever runs its chunks, and to its own worker invariance
// at a short block length; a warm call reuses the caller's parts.
func TestSumBlocksIsSumBlockedAtAnyBlockLength(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 2*SumBlock + 300
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	sum := func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			s += vals[i]
		}
		return s
	}
	on := func(p int) func(int, func(int, int, int)) {
		return func(blocks int, fn func(worker, lo, hi int)) { Chunks(blocks, p, fn) }
	}
	if got, _ := SumBlocks(n, SumBlock, on(3), nil, sum); got != SumBlocked(n, 1, sum) {
		t.Fatalf("SumBlocks at SumBlock = %x, want SumBlocked's %x", got, SumBlocked(n, 1, sum))
	}
	want, parts := SumBlocks(n, 64, on(1), nil, sum)
	for _, p := range []int{2, 5, 64} {
		got, again := SumBlocks(n, 64, on(p), parts, sum)
		if got != want {
			t.Fatalf("block 64, p=%d: %x, want %x", p, got, want)
		}
		if &again[0] != &parts[0] {
			t.Fatalf("p=%d: parts reallocated", p)
		}
	}
}

// TestSumBlockedAtMatchesSumBlocked holds the sparse fold to SumBlocked
// over the same indices, bit for bit, including index lists that skip
// whole blocks and end before the last one.
func TestSumBlockedAtMatchesSumBlocked(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 4*SumBlock + 17
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.ExpFloat64() / float64(n)
	}
	for _, keep := range []func(i int) bool{
		func(int) bool { return false },
		func(int) bool { return rng.Intn(3) == 0 },
		func(i int) bool { return i < SumBlock/2 || (i >= 2*SumBlock && i < 3*SumBlock) },
		func(i int) bool { return i == n-1 },
	} {
		var idx []int32
		for i := range x {
			if keep(i) {
				idx = append(idx, int32(i))
			}
		}
		want := SumBlocked(n, 4, func(lo, hi int) float64 {
			var s float64
			for _, i := range idx {
				if int(i) >= lo && int(i) < hi {
					s += x[i]
				}
			}
			return s
		})
		if got := SumBlockedAt(x, idx); got != want {
			t.Fatalf("%d indices: SumBlockedAt = %x, want %x", len(idx), got, want)
		}
	}
}

// TestSortInt64sMatchesSlicesSort holds the radix sort to slices.Sort on
// the inputs its sign flip and digit skipping could get wrong, on both
// sides of radixSortMin and large enough for eight workers.
func TestSortInt64sMatchesSlicesSort(t *testing.T) {
	inputs := []struct {
		name string
		gen  func(rng *rand.Rand, i, n int) int64
	}{
		{"equal", func(_ *rand.Rand, _, _ int) int64 { return -42 }},
		{"sorted", func(_ *rand.Rand, i, _ int) int64 { return int64(i) * 3 }},
		{"reversed", func(_ *rand.Rand, i, n int) int64 { return int64(n - i) }},
		{"negative", func(rng *rand.Rand, _, _ int) int64 { return -1 - rng.Int63n(1<<40) }},
		{"duplicates", func(rng *rand.Rand, _, n int) int64 { return rng.Int63n(int64(n/2 + 1)) }},
		{"graph500-ids", func(rng *rand.Rand, _, _ int) int64 { return rng.Int63n(1 << 17) }},
		{"all-digits", func(rng *rand.Rand, i, _ int) int64 {
			switch i % 5 {
			case 0:
				return math.MinInt64
			case 1:
				return math.MaxInt64
			}
			return int64(rng.Uint64())
		}},
	}
	for _, procs := range []int{1, 2, 8} {
		forceProcs(t, procs)
		for _, n := range []int{0, 1, radixSortMin - 1, radixSortMin, 20 * MinGrain} {
			for _, in := range inputs {
				rng := rand.New(rand.NewSource(int64(n)))
				a := make([]int64, n)
				for i := range a {
					a[i] = in.gen(rng, i, n)
				}
				want := slices.Clone(a)
				slices.Sort(want)
				if got := SortInt64s(a); !slices.Equal(got, want) {
					t.Fatalf("GOMAXPROCS=%d n=%d %s: SortInt64s disagrees with slices.Sort", procs, n, in.name)
				}
			}
		}
	}
}

// TestSortInt64sFromIsStable holds the sequential radix sort to a stable
// comparison sort on the bits from low up: keys carry their input position
// below low, so any reordering of equal keys shows, and a sort that read
// the low bits would reorder them too.
func TestSortInt64sFromIsStable(t *testing.T) {
	for _, low := range []uint{0, 5, 32} {
		for _, n := range []int{0, 1, 2, 47, 48, 1000} {
			for _, span := range []int64{1, 3, 1 << 17, 1 << 30} {
				rng := rand.New(rand.NewSource(int64(n) + span))
				a := make([]int64, n)
				for i := range a {
					key := rng.Int63n(span) - span/2
					if low == 32 {
						key = rng.Int63n(min(span, 1<<31)) // the builder's neighbor<<32 | position words
					}
					a[i] = key<<low | int64(i)&(1<<low-1)
				}
				want := slices.Clone(a)
				slices.SortStableFunc(want, func(x, y int64) int { return cmp.Compare(x>>low, y>>low) })
				tmp := make([]int64, n)
				got := SortInt64sFrom(a, tmp, low)
				if !slices.Equal(got, want) {
					t.Fatalf("low=%d n=%d span=%d: SortInt64sFrom is not a stable sort on the high bits", low, n, span)
				}
				if n > 0 && &got[0] != &a[0] && &got[0] != &tmp[0] {
					t.Fatalf("low=%d n=%d: result is neither a nor tmp", low, n)
				}
			}
		}
	}
	a, tmp := make([]int64, 1000), make([]int64, 1000)
	if allocs := testing.AllocsPerRun(10, func() { SortInt64sFrom(a, tmp, 32) }); allocs != 0 {
		t.Fatalf("SortInt64sFrom allocates %v objects, want 0", allocs)
	}
}

// A panic in a chunk reaches Chunks' caller after the join, as the lowest
// panicking chunk's value whatever the schedule and however many helpers
// the call borrowed — none at GOMAXPROCS=1 — and the next region runs
// normally.
func TestChunksPanicReachesCaller(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		forceProcs(t, procs)
		for _, p := range []int{4, 9} {
			for _, first := range []int{1, p - 2} {
				for range 50 {
					got := func() (v any) {
						defer func() { v = recover() }()
						Chunks(p, p, func(w, _, _ int) {
							if w >= first {
								panic(w)
							}
						})
						return nil
					}()
					if got != first {
						t.Fatalf("GOMAXPROCS=%d p=%d: caller recovered %v, want chunk %d's panic", procs, p, got, first)
					}
				}
			}
		}
		var visited atomic.Int64
		Chunks(100, 4, func(_, lo, hi int) { visited.Add(int64(hi - lo)) })
		if visited.Load() != 100 {
			t.Fatalf("GOMAXPROCS=%d: region after the panics visited %d elements, want 100", procs, visited.Load())
		}
	}
}

// goidInto returns the calling goroutine's id, parsed from its stack
// header ("goroutine 18 [running]:") read into buf, which it does not
// allocate; it tells the caller's chunks from the ones a helper ran.
func goidInto(buf []byte) int {
	n := runtime.Stack(buf, false)
	id := 0
	for _, b := range buf[len("goroutine "):n] {
		if b < '0' || b > '9' {
			break
		}
		id = id*10 + int(b-'0')
	}
	return id
}

func TestChunksWarmCallAllocatesNothing(t *testing.T) {
	forceProcs(t, 4)
	const p = 4
	caller := goidInto(make([]byte, 32))
	var offCaller atomic.Int32
	sums := make([]int, p)
	bufs := make([][]byte, p)
	for w := range bufs {
		bufs[w] = make([]byte, 32)
	}
	body := func(w, lo, hi int) {
		if goidInto(bufs[w]) != caller {
			offCaller.Add(1)
		}
		for i := lo; i < hi; i++ {
			sums[w] += i
		}
	}
	Chunks(1<<12, p, body) // warm-up: starts the helpers, fills the region pool
	// testing.AllocsPerRun would pin GOMAXPROCS to 1 and so run every
	// call inline; count the heap objects around warm calls instead.
	const calls = 100
	offCaller.Store(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range calls {
		Chunks(1<<12, p, body)
	}
	runtime.ReadMemStats(&after)
	if offCaller.Load() == 0 {
		t.Fatal("no chunk ran on a helper: the calls were not concurrent")
	}
	if allocs := (after.Mallocs - before.Mallocs) / calls; allocs != 0 {
		t.Fatalf("a warm Chunks call allocated %d objects, want 0", allocs)
	}
}

// TestChunksSingleElementKeepsChunkIndex pins worker/chunk alignment in
// the degenerate case: with n=1 and p=4 the only non-empty chunk is the
// last one, and it must be delivered under its own index, not worker 0.
func TestChunksSingleElementKeepsChunkIndex(t *testing.T) {
	var gotWorker atomic.Int64
	gotWorker.Store(-1)
	Chunks(1, 4, func(w, lo, hi int) {
		if lo != 0 || hi != 1 {
			t.Errorf("chunk = [%d,%d), want [0,1)", lo, hi)
		}
		gotWorker.Store(int64(w))
	})
	wantLo, wantHi := ChunkRange(1, 4, 3)
	if wantLo != 0 || wantHi != 1 {
		t.Fatalf("ChunkRange(1,4,3) = [%d,%d), want [0,1)", wantLo, wantHi)
	}
	if gotWorker.Load() != 3 {
		t.Errorf("worker index = %d, want 3 (the owning chunk)", gotWorker.Load())
	}
}
