package cluster_test

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphalytics/internal/clock"
	"graphalytics/internal/cluster"
	"graphalytics/internal/par"
)

// threadsOf builds a Threads handle through a cluster round, the only way
// engines obtain one.
func threadsOf(t *testing.T, count int, use func(th *cluster.Threads)) time.Duration {
	t.Helper()
	c := cluster.New(cluster.Config{Machines: 1, Threads: count})
	if err := c.RunRound(func(_ int, th *cluster.Threads) error {
		use(th)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return c.SimulatedTime()
}

func TestThreadsCoversRange(t *testing.T) {
	for _, count := range []int{1, 3, 8} {
		seen := make([]int, 100)
		threadsOf(t, count, func(th *cluster.Threads) {
			if th.Count() != count {
				t.Fatalf("Count = %d, want %d", th.Count(), count)
			}
			th.Chunks(len(seen), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					seen[i]++
				}
			})
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("threads=%d: index %d visited %d times", count, i, c)
			}
		}
	}
}

func TestThreadsIndexedWorkersDistinct(t *testing.T) {
	threadsOf(t, 4, func(th *cluster.Threads) {
		used := make(map[int]bool)
		th.ChunksIndexed(100, func(w, lo, hi int) {
			if used[w] {
				t.Fatalf("worker slot %d reused", w)
			}
			if w < 0 || w >= 4 {
				t.Fatalf("worker slot %d out of range", w)
			}
			used[w] = true
		})
		if len(used) != 4 {
			t.Fatalf("used %d worker slots, want 4", len(used))
		}
	})
}

func TestThreadsZeroWork(t *testing.T) {
	threadsOf(t, 4, func(th *cluster.Threads) {
		th.Chunks(0, func(lo, hi int) { t.Fatal("must not run for n=0") })
	})
}

const (
	// spawnCost mirrors the modeled per-additional-thread cost in threads.go.
	spawnCost = 2 * time.Microsecond
	// step is what one read of the timing tests' stepping clock costs.
	step = time.Millisecond
)

// simTimeOnSteppingClock runs one round under a fresh stepping clock and
// hands the body that clock: reading it is the body's unit of work, worth
// exactly one step of simulated time, as is every measurement read the
// cluster makes itself.
func simTimeOnSteppingClock(t *testing.T, count int, use func(th *cluster.Threads, burn func())) time.Duration {
	t.Helper()
	stepping := steppingClock(step)
	defer clock.SetForTesting(stepping)()
	return threadsOf(t, count, func(th *cluster.Threads) {
		use(th, func() { stepping() })
	})
}

func TestThreadsDiscountReducesSimulatedTime(t *testing.T) {
	// A perfectly parallel region of 64 one-step elements.
	region := func(th *cluster.Threads, burn func()) {
		th.Chunks(64, func(lo, hi int) {
			for range hi - lo {
				burn()
			}
		})
	}
	// One thread: no chunk measurement, the round's own clock pair
	// brackets the 64 element reads.
	if got, want := simTimeOnSteppingClock(t, 1, region), 65*step; got != want {
		t.Fatalf("1 simulated thread: %v, want %v", got, want)
	}
	// Eight threads: the round spans 81 steps (64 elements, a clock pair
	// per chunk, the round's closing read), the chunks measure 9 steps
	// each (72 in sequence), and the model keeps the slowest chunk plus
	// seven spawns — a discount of 63 steps less the spawn cost. What
	// remains is that chunk, the spawns, and the 9 reads that fall between
	// measured regions and stay sequential.
	if got, want := simTimeOnSteppingClock(t, 8, region), 18*step+7*spawnCost; got != want {
		t.Fatalf("8 simulated threads: %v, want %v", got, want)
	}
}

func TestThreadsSequentialWorkNotDiscounted(t *testing.T) {
	// Work outside Chunks regions is charged in full whatever the thread
	// budget: 100 sequential steps inside the round's clock pair.
	sequential := func(_ *cluster.Threads, burn func()) {
		for k := 0; k < 100; k++ {
			burn()
		}
	}
	for _, count := range []int{1, 8} {
		if got, want := simTimeOnSteppingClock(t, count, sequential), 101*step; got != want {
			t.Fatalf("%d simulated threads: sequential section charged %v, want %v", count, got, want)
		}
	}
}

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 18 [running]:"), so a test can tell the caller's chunks from
// the ones a helper ran.
func goid() int { return goidInto(make([]byte, 32)) }

// goidInto is goid reading the header into buf, which it does not
// allocate.
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

// concurrentRound runs use in one round of a one-machine cluster whose
// regions may run on up to hostWorkers host goroutines.
func concurrentRound(t *testing.T, count, hostWorkers int, use func(th *cluster.Threads)) {
	t.Helper()
	c := cluster.New(cluster.Config{Threads: count, HostWorkers: hostWorkers})
	if err := c.RunRound(func(_ int, th *cluster.Threads) error {
		use(th)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestThreadsConcurrentChunksKeepTheirGeometry(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, hostWorkers := range []int{0, 2, 3, 8} {
		for _, count := range []int{2, 3, 8} {
			for _, n := range []int{1, 5, 100} {
				chunks := min(count, n)
				type chunk struct{ lo, hi, runs int }
				got := make([]chunk, chunks)
				concurrentRound(t, count, hostWorkers, func(th *cluster.Threads) {
					th.ChunksIndexed(n, func(w, lo, hi int) {
						got[w].lo, got[w].hi = lo, hi
						got[w].runs++
					})
				})
				for w, c := range got {
					lo, hi := par.ChunkRange(n, chunks, w)
					if c != (chunk{lo, hi, 1}) {
						t.Fatalf("host workers %d, threads %d, n %d: worker %d ran [%d, %d) %d times, want [%d, %d) once",
							hostWorkers, count, n, w, c.lo, c.hi, c.runs, lo, hi)
					}
				}
			}
		}
	}
}

// TestThreadsCollect checks Collect inline and on helpers: the result is
// every chunk's items in worker order, dst may be the very slice the
// chunks read, and a warm call allocates nothing.
func TestThreadsCollect(t *testing.T) {
	const n, count = 1000, 4
	for _, procs := range []int{1, 4} {
		for _, hostWorkers := range []int{1, 4} {
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				c := cluster.New(cluster.Config{Threads: count, HostWorkers: hostWorkers})
				in := make([]int32, n)
				for i := range in {
					in[i] = int32(i)
				}
				var want []int32
				for w := range count {
					lo, hi := par.ChunkRange(n, count, w)
					for i := lo; i < hi; i++ {
						want = append(want, int32(w*n+i))
					}
				}
				// Each chunk tags its items with its worker index, so a
				// result out of worker order cannot compare equal.
				tag := func(w, lo, hi int, out []int32) []int32 {
					for _, v := range in[lo:hi] {
						out = append(out, int32(w*n)+v)
					}
					return out
				}
				out := make([]int32, 0, n)
				round := func(_ int, th *cluster.Threads) error {
					out = th.Collect(n, out, tag)
					return nil
				}
				if err := c.RunRound(round); err != nil { // warm-up: grows the worker buffers
					t.Fatal(err)
				}
				if !slices.Equal(out, want) {
					t.Fatalf("GOMAXPROCS %d, host workers %d: Collect = %v..., want %v...", procs, hostWorkers, out[:8], want[:8])
				}
				const rounds = 100
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for range rounds {
					if err := c.RunRound(round); err != nil {
						t.Fatal(err)
					}
				}
				runtime.ReadMemStats(&after)
				if allocs := (after.Mallocs - before.Mallocs) / rounds; allocs != 0 {
					t.Fatalf("GOMAXPROCS %d, host workers %d: a warm Collect allocated %d objects, want 0", procs, hostWorkers, allocs)
				}
				// dst aliases the chunks' input: the copy into it waits for
				// the join, so every chunk still reads the original items.
				if err := c.RunRound(func(_ int, th *cluster.Threads) error {
					in = th.Collect(n, in, tag)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(in, want) {
					t.Fatalf("GOMAXPROCS %d, host workers %d: Collect into its own input = %v..., want %v...", procs, hostWorkers, in[:8], want[:8])
				}
			}()
		}
	}
}

// TestThreadsHelperBudget runs regions of two callers at once — one a
// cluster's simulated threads, the other plain par.Chunks calls — each
// wanting more helpers than the host has: between them they never hold
// more than GOMAXPROCS−1, counted by the bodies that run off their caller.
func TestThreadsHelperBudget(t *testing.T) {
	const procs = 3
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	var inHelpers, most atomic.Int32
	body := func(caller int) {
		if goid() == caller {
			return
		}
		now := inHelpers.Add(1)
		for m := most.Load(); now > m && !most.CompareAndSwap(m, now); m = most.Load() {
		}
		time.Sleep(10 * time.Microsecond)
		inHelpers.Add(-1)
	}
	var wg sync.WaitGroup
	for i := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			caller := goid()
			for range 200 {
				if i == 0 {
					concurrentRound(t, 8, 8, func(th *cluster.Threads) {
						th.ChunksIndexed(8, func(_, _, _ int) { body(caller) })
					})
					continue
				}
				par.Chunks(8, 8, func(_, _, _ int) { body(caller) })
			}
		}()
	}
	wg.Wait()
	if m := most.Load(); m < 1 || m > procs-1 {
		t.Fatalf("at most %d helpers ran bodies at once, want between 1 and %d", m, procs-1)
	}
}

// TestNestedRegionsUnderExhaustedPool runs eight callers at once, each a
// simulated-thread region whose chunks nest par.Chunks two deep, with a
// single helper to share between them: whoever cannot borrow runs its
// chunks itself, so every caller finishes and every innermost chunk runs
// once.
func TestNestedRegionsUnderExhaustedPool(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const callers, fan = 8, 4
	var leaves atomic.Int64
	errs := make(chan error, callers)
	for range callers {
		go func() {
			c := cluster.New(cluster.Config{Threads: fan, HostWorkers: fan})
			errs <- c.RunRound(func(_ int, th *cluster.Threads) error {
				th.ChunksIndexed(fan, func(_, _, _ int) {
					par.Chunks(fan, fan, func(_, _, _ int) {
						par.Chunks(fan, fan, func(_, lo, hi int) { leaves.Add(int64(hi - lo)) })
					})
				})
				return nil
			})
		}()
	}
	timeout := time.After(time.Minute)
	for range callers {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-timeout:
			t.Fatal("nested regions did not finish within a minute: the pool deadlocked")
		}
	}
	if got, want := leaves.Load(), int64(callers*fan*fan*fan); got != want {
		t.Fatalf("innermost chunks covered %d elements, want %d", got, want)
	}
}

// A panic in a chunk that a helper runs reaches the region's caller after
// the join — the lowest goroutine's value when several panic — and the
// helper goes back to the pool: with GOMAXPROCS 2 there is exactly one,
// so the next region's second chunk running off the caller shows it is
// both alive and lendable again.
func TestThreadsHelperPanicReachesCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	caller := goid()
	c := cluster.New(cluster.Config{Threads: 2, HostWorkers: 2})
	region := func(panics map[int]any) (helped bool, recovered any) {
		defer func() { recovered = recover() }()
		_ = c.RunRound(func(_ int, th *cluster.Threads) error {
			th.ChunksIndexed(2, func(w, _, _ int) {
				if w == 1 {
					helped = goid() != caller
				}
				if v, ok := panics[w]; ok {
					panic(v)
				}
			})
			return nil
		})
		return helped, nil
	}
	inHelper, inCaller := errors.New("chunk 1"), errors.New("chunk 0")
	for _, tc := range []struct {
		panics map[int]any
		want   any
	}{
		{map[int]any{1: inHelper}, inHelper},
		{nil, nil},
		{map[int]any{0: inCaller, 1: inHelper}, inCaller},
		{nil, nil},
	} {
		helped, got := region(tc.panics)
		if !helped {
			t.Fatalf("panics %v: chunk 1 ran on the caller, want a helper", tc.panics)
		}
		if got != tc.want {
			t.Fatalf("panics %v: caller recovered %v, want %v", tc.panics, got, tc.want)
		}
	}
}

func TestThreadsConcurrentRegionAllocatesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	caller := goid()
	var offCaller atomic.Int32
	sums := make([]int, 4)
	bufs := make([][]byte, 4)
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
	c := cluster.New(cluster.Config{Threads: 4, HostWorkers: 4})
	round := func(_ int, th *cluster.Threads) error {
		th.ChunksIndexed(1<<12, body)
		return nil
	}
	if err := c.RunRound(round); err != nil { // warm-up: starts the helpers
		t.Fatal(err)
	}
	// testing.AllocsPerRun would pin GOMAXPROCS to 1 and so run every
	// region inline; count the heap objects around warm rounds instead.
	const rounds = 100
	offCaller.Store(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range rounds {
		if err := c.RunRound(round); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if offCaller.Load() == 0 {
		t.Fatal("no chunk ran on a helper: the regions were not concurrent")
	}
	if allocs := (after.Mallocs - before.Mallocs) / rounds; allocs != 0 {
		t.Fatalf("a warm concurrent round allocated %d objects, want 0", allocs)
	}
}
