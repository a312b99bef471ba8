package cluster_test

import (
	"testing"
	"time"

	"graphalytics/internal/clock"
	"graphalytics/internal/cluster"
)

// steppingClock returns a fake clock that advances step on every read,
// so each (start, end) measurement pair yields exactly step.
func steppingClock(step time.Duration) func() time.Time {
	base := time.Unix(0, 0)
	n := 0
	return func() time.Time {
		t := base.Add(time.Duration(n) * step)
		n++
		return t
	}
}

// TestFrozenClockMeasuresNothing pins the wallclock contract the lint
// suite enforces: all compute-time measurement goes through
// internal/clock, so with a frozen clock the compute component of
// simulated time is exactly zero no matter how much host time the round
// really burned — only the modeled network cost remains.
func TestFrozenClockMeasuresNothing(t *testing.T) {
	frozen := time.Unix(42, 0)
	restore := clock.SetForTesting(func() time.Time { return frozen })
	defer restore()

	c := cluster.New(cluster.Config{Machines: 2, Threads: 4, Net: cluster.DefaultNetwork()})
	if err := c.RunRound(func(m int, th *cluster.Threads) error {
		sink := 0
		th.Chunks(1<<14, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				sink += i * i
			}
		})
		c.Send(m, (m+1)%2, 1<<20)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	c.RunBarrier(func() {})

	if got, net := c.SimulatedTime(), c.NetworkTime(); got != net {
		t.Fatalf("SimulatedTime = %v, NetworkTime = %v: compute component %v leaked past the frozen clock", got, net, got-net)
	}
	if c.NetworkTime() == 0 {
		t.Fatal("NetworkTime = 0, want modeled cost for 1 MiB of egress")
	}
}

// TestSteppingClockReplaysExactly drives the seam with a deterministic
// stepping clock: every measurement pair reads the clock twice, so the
// accumulated simulated time is an exact, replayable function of the
// round schedule.
func TestSteppingClockReplaysExactly(t *testing.T) {
	const step = 5 * time.Millisecond
	run := func() time.Duration {
		restore := clock.SetForTesting(steppingClock(step))
		defer restore()
		c := cluster.New(cluster.Config{Machines: 1, Threads: 1})
		for r := 0; r < 3; r++ {
			if err := c.RunRound(func(int, *cluster.Threads) error { return nil }); err != nil {
				t.Fatal(err)
			}
		}
		c.RunBarrier(func() {})
		return c.SimulatedTime()
	}

	// 3 rounds + 1 barrier, each bracketed by one start/end clock pair.
	want := 4 * step
	first := run()
	if first != want {
		t.Fatalf("SimulatedTime = %v, want %v", first, want)
	}
	if second := run(); second != first {
		t.Fatalf("replay diverged: %v then %v", first, second)
	}
}
