package mplane

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestInboxStableOrder is the package's determinism contract for the CSR
// inbox: counting and scattering stages in a fixed order must reproduce
// exactly the delivery order of append-based [][]T delivery, for any
// number of stages and any buffer-reuse history.
func TestInboxStableOrder(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(7))
	var ib Inbox[int64]
	stages := make([]Stage[int64], 5)
	for round := 0; round < 20; round++ {
		// Reference: plain append-based delivery in stage order.
		want := make([][]int64, n)
		for si := range stages {
			stages[si].Reset()
			for k := 0; k < rng.Intn(200); k++ {
				dst := int32(rng.Intn(n))
				msg := int64(si)<<32 | int64(k)
				stages[si].Send(dst, msg)
				want[dst] = append(want[dst], msg)
			}
		}
		ib.Begin(n)
		for si := range stages {
			ib.Count(&stages[si])
		}
		ib.Seal()
		for si := range stages {
			ib.Scatter(&stages[si])
		}
		for v := int32(0); v < n; v++ {
			got := ib.At(v)
			if len(got) != len(want[v]) {
				t.Fatalf("round %d vertex %d: %d messages, want %d", round, v, len(got), len(want[v]))
			}
			for i := range got {
				if got[i] != want[v][i] {
					t.Fatalf("round %d vertex %d msg %d: got %d, want %d (delivery order not stable)",
						round, v, i, got[i], want[v][i])
				}
			}
		}
	}
}

// TestInboxReuseAcrossSizes verifies that shrinking and regrowing the
// vertex count between rounds cannot leak stale counts or payloads.
func TestInboxReuseAcrossSizes(t *testing.T) {
	var ib Inbox[int32]
	var st Stage[int32]
	for _, n := range []int{10, 100, 3, 57} {
		st.Reset()
		for v := 0; v < n; v++ {
			st.Send(int32(v), int32(v)*2)
		}
		ib.Begin(n)
		ib.Count(&st)
		ib.Seal()
		ib.Scatter(&st)
		if ib.Total() != n {
			t.Fatalf("n=%d: total %d", n, ib.Total())
		}
		for v := int32(0); v < int32(n); v++ {
			if got := ib.At(v); len(got) != 1 || got[0] != v*2 {
				t.Fatalf("n=%d vertex %d: %v", n, v, got)
			}
		}
	}
}

// TestSlotsCombine verifies the combined inbox folds strictly left to
// right in delivery order and that generations isolate rounds.
func TestSlotsCombine(t *testing.T) {
	var s Slots[int64]
	// Non-commutative combiner exposes any order deviation.
	combine := func(a, b int64) int64 { return a*10 + b }
	s.Begin(4)
	s.Put(2, 1, combine)
	s.Put(2, 2, combine)
	s.Put(2, 3, combine)
	if got := s.At(2); len(got) != 1 || got[0] != 123 {
		t.Fatalf("At(2) = %v, want [123]", got)
	}
	if s.Has(0) {
		t.Fatal("vertex 0 should have no message")
	}
	if got := s.At(0); got != nil {
		t.Fatalf("At(0) = %v, want nil", got)
	}
	s.Begin(4)
	if s.Has(2) {
		t.Fatal("generation bump leaked a message across rounds")
	}
	s.Put(0, 7, combine)
	if got := s.At(0); len(got) != 1 || got[0] != 7 {
		t.Fatalf("At(0) = %v, want [7]", got)
	}
}

// TestSlotsGenerationWrap forces the uint32 generation counter around its
// wrap point and checks slots stay isolated.
func TestSlotsGenerationWrap(t *testing.T) {
	var s Slots[int64]
	s.Begin(2)
	s.Put(0, 5, nil)
	s.cur = ^uint32(0) // fast-forward to the wrap boundary
	s.gen[0] = s.cur   // simulate a message delivered in the last pre-wrap round
	s.Begin(2)
	if s.Has(0) || s.Has(1) {
		t.Fatal("wrapped generation resurrected a stale slot")
	}
	s.Put(1, 9, nil)
	if !s.Has(1) || s.At(1)[0] != 9 {
		t.Fatal("post-wrap delivery broken")
	}
}

// TestSlotsReuseAcrossSizes holds a pooled Slots to its graph-agnostic
// contract: it keeps its arrays from 1000 vertices down to 10 and back up,
// a slot stamped in an earlier round never reads as delivered, and a
// generation wrap taken while the slots are shrunk clears the stamps past
// the shrunk size too, which the next grow re-exposes.
func TestSlotsReuseAcrossSizes(t *testing.T) {
	var s Slots[int64]
	fill := func(n int) {
		for v := int32(0); v < int32(n); v++ {
			s.Put(v, int64(v), nil)
		}
	}
	s.Begin(1000)
	fill(1000)
	arr := &s.gen[0]
	s.Begin(10)
	noStaleSlots(t, "shrunk to 10", &s, 10)
	fill(10)
	for v := int32(0); v < 10; v++ {
		if got := s.At(v); len(got) != 1 || got[0] != int64(v) {
			t.Fatalf("shrunk to 10: At(%d) = %v, want [%d]", v, got, v)
		}
	}
	s.Begin(1000)
	if &s.gen[0] != arr {
		t.Fatal("regrowing to 1000 reallocated the slots instead of re-slicing them")
	}
	noStaleSlots(t, "regrown to 1000", &s, 1000)

	// Stamp every slot with a small generation, shrink, and wrap the
	// counter while shrunk: a clear that stops at the shrunk size leaves
	// those stamps to match the generations after the wrap.
	var w Slots[int64]
	w.Begin(1000)
	w.Begin(1000)
	stale := w.cur
	for v := int32(0); v < 1000; v++ {
		w.Put(v, 1, nil)
	}
	w.Begin(10)
	w.cur = ^uint32(0)
	w.Begin(10) // wraps
	// Advance so that the grow below takes generation stale.
	for w.cur+1 < stale {
		w.Begin(10)
	}
	w.Begin(1000)
	noStaleSlots(t, "regrown to 1000 after a wrap at 10", &w, 1000)
}

// noStaleSlots fails unless none of s's first n slots holds a message.
func noStaleSlots(t *testing.T, at string, s *Slots[int64], n int) {
	t.Helper()
	for v := int32(0); v < int32(n); v++ {
		if s.Has(v) || s.At(v) != nil {
			t.Fatalf("%s: vertex %d holds a message from an earlier round", at, v)
		}
	}
}

// TestPoolConcurrentAcquirePut has K goroutines check values out of one
// Pool and put them back, many times each, as concurrent jobs of one
// engine do. No value may be held by two callers at once, every value
// built must come back, and the pool never builds more than K.
func TestPoolConcurrentAcquirePut(t *testing.T) {
	type arena struct {
		id    int
		inUse atomic.Bool
	}
	const K, rounds = 8, 2000
	var (
		p     Pool
		built atomic.Int32
		wg    sync.WaitGroup
	)
	mk := func() *arena { return &arena{id: int(built.Add(1))} }
	for range K {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				a := Acquire(&p, mk)
				if !a.inUse.CompareAndSwap(false, true) {
					t.Errorf("arena %d handed to two callers at once", a.id)
					return
				}
				runtime.Gosched()
				a.inUse.Store(false)
				p.Put(a)
			}
		}()
	}
	wg.Wait()
	n := int(built.Load())
	if n > K {
		t.Errorf("built %d arenas for %d concurrent callers", n, K)
	}
	seen := map[int]bool{}
	for {
		a := Acquire(&p, func() *arena { return nil })
		if a == nil {
			break
		}
		if seen[a.id] {
			t.Fatalf("arena %d is on the free list twice", a.id)
		}
		seen[a.id] = true
	}
	if len(seen) != n {
		t.Fatalf("%d of %d arenas came back to the pool", len(seen), n)
	}
}

// TestHistogramMatchesMap cross-checks the histogram against the
// map-based counter it replaces, on random multisets, including across
// Reset reuse and table growth.
func TestHistogramMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := NewHistogram(0)
	for trial := 0; trial < 300; trial++ {
		h.Reset()
		counts := make(map[int64]int)
		size := rng.Intn(120)
		for i := 0; i < size; i++ {
			// Negative and huge keys exercise the hash.
			key := rng.Int63n(40) - 20
			if rng.Intn(10) == 0 {
				key = rng.Int63() - rng.Int63()
			}
			h.Add(key)
			counts[key]++
		}
		own := rng.Int63n(50) - 25
		best, bestCount := own, 0
		for k, c := range counts {
			if c > bestCount || (c == bestCount && k < best) {
				best, bestCount = k, c
			}
		}
		if got := h.Best(own); got != best {
			t.Fatalf("trial %d: Best(%d) = %d, want %d (counts %v)", trial, own, got, best, counts)
		}
		if h.Len() != len(counts) {
			t.Fatalf("trial %d: Len %d, want %d", trial, h.Len(), len(counts))
		}
	}
}

// TestHistogramTieBreak pins the specification's argmax: highest count
// wins, ties go to the smallest label, an empty histogram keeps own.
func TestHistogramTieBreak(t *testing.T) {
	h := NewHistogram(4)
	if got := h.Best(99); got != 99 {
		t.Fatalf("empty Best = %d, want 99", got)
	}
	for _, k := range []int64{7, 3, 7, 3, 5} {
		h.Add(k)
	}
	if got := h.Best(99); got != 3 {
		t.Fatalf("Best = %d, want 3 (count tie between 3 and 7 breaks small)", got)
	}
	h.Reset()
	h.Add(5)
	if got := h.Best(-1); got != 5 {
		// own never wins on count 0 vs count 1.
		t.Fatalf("Best = %d, want 5", got)
	}
}

// TestHistogramGenerationWrap forces the generation counter to wrap and
// verifies stale slots do not resurrect.
func TestHistogramGenerationWrap(t *testing.T) {
	h := NewHistogram(4)
	h.Add(11)
	h.cur = ^uint32(0)
	for i := range h.gen {
		if h.gen[i] != 0 {
			h.gen[i] = h.cur
		}
	}
	h.Reset()
	if h.Len() != 0 {
		t.Fatal("wrap resurrected entries")
	}
	h.Add(3)
	h.Add(3)
	if got := h.Best(0); got != 3 {
		t.Fatalf("post-wrap Best = %d, want 3", got)
	}
}

// TestPoolTypedAcquire verifies the type-keyed pool's checkout semantics:
// checked-out slots are empty (a concurrent job allocates fresh), and
// slots of different types coexist, so algorithm sweeps alternating
// message types keep one warm arena per type.
func TestPoolTypedAcquire(t *testing.T) {
	type a struct{ x int }
	type b struct{ y int }
	var p Pool
	first := Acquire(&p, func() *a { return &a{x: 1} })
	if first.x != 1 {
		t.Fatal("mk not called on empty pool")
	}
	p.Put(first)
	second := Acquire(&p, func() *a { t.Fatal("mk called despite cached value"); return nil })
	if second != first {
		t.Fatal("cached value not returned")
	}
	// While checked out, the slot is empty: a concurrent job allocates.
	third := Acquire(&p, func() *a { return &a{x: 3} })
	if third == second || third.x != 3 {
		t.Fatal("checkout did not empty the slot")
	}
	p.Put(second)
	// A different type gets its own slot without evicting *a's.
	bv := Acquire(&p, func() *b { return &b{y: 9} })
	if bv.y != 9 {
		t.Fatal("empty slot for a new type must fall back to mk")
	}
	p.Put(bv)
	if got := Acquire(&p, func() *a { t.Fatal("a's slot was evicted by b"); return nil }); got != second {
		t.Fatal("a's cached value lost")
	}
	if got := Acquire(&p, func() *b { t.Fatal("b's slot was evicted"); return nil }); got != bv {
		t.Fatal("b's cached value lost")
	}
}

// BenchmarkHistogramVsMap quantifies the histogram against the map it
// replaced on a CDLP-shaped workload (small multiset, reset per vertex).
func BenchmarkHistogramVsMap(b *testing.B) {
	labels := make([]int64, 64)
	rng := rand.New(rand.NewSource(1))
	for i := range labels {
		labels[i] = rng.Int63n(16)
	}
	b.Run("histogram", func(b *testing.B) {
		h := NewHistogram(16)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Reset()
			for _, l := range labels {
				h.Add(l)
			}
			_ = h.Best(0)
		}
	})
	b.Run("map", func(b *testing.B) {
		counts := make(map[int64]int, 16)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			clear(counts)
			for _, l := range labels {
				counts[l]++
			}
			best, bestCount := int64(0), 0
			for l, c := range counts {
				if c > bestCount || (c == bestCount && l < best) {
					best, bestCount = l, c
				}
			}
			_ = best
		}
	})
}
