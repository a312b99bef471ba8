package cluster_test

import (
	"testing"
	"time"

	"graphalytics/internal/cluster"
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

func TestThreadsFor(t *testing.T) {
	sum := 0
	threadsOf(t, 4, func(th *cluster.Threads) {
		th.For(10, func(i int) { sum += i })
	})
	if sum != 45 {
		t.Fatalf("sum = %d, want 45", sum)
	}
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
	clock := steppingClock(step)
	defer cluster.SetClockForTesting(clock)()
	return threadsOf(t, count, func(th *cluster.Threads) {
		use(th, func() { clock() })
	})
}

func TestThreadsDiscountReducesSimulatedTime(t *testing.T) {
	// A perfectly parallel region of 64 one-step elements.
	region := func(th *cluster.Threads, burn func()) {
		th.For(64, func(int) { burn() })
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
