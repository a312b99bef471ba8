package platform_test

import (
	"slices"
	"testing"

	"graphalytics/internal/cluster"
	"graphalytics/internal/platform"
)

// exchangeOwner places vertex v on machine v mod machines.
func exchangeOwner(n, machines int) []int32 {
	owner := make([]int32, n)
	for v := range owner {
		owner[v] = int32(v % machines)
	}
	return owner
}

// size8 prices every message at 8 bytes.
func size8(int64) int64 { return 8 }

// stageRound runs one exchange round on cl: every machine stages what
// stage puts in its producers' stages, then delivers. It returns the
// messages Deliver counted.
func stageRound(t *testing.T, x *platform.Exchange[int64], cl *cluster.Cluster, stage func(mach int)) int64 {
	t.Helper()
	var messages int64
	x.Open()
	if err := cl.RunRound(func(mach int, _ *cluster.Threads) error {
		stage(mach)
		messages += x.Deliver(cl, mach)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	x.Barrier(cl)
	return messages
}

// TestExchangeDeliversMachineMajorProducerMajor stages, on 3 machines of
// 2 producers each, two messages per producer to vertex 4, producer 1
// staging before producer 0. Vertex 4 must read them machine-major, then
// producer-major, then in staging order, whatever the order producers
// staged in.
func TestExchangeDeliversMachineMajorProducerMajor(t *testing.T) {
	cl := cluster.New(cluster.Config{Machines: 3, Threads: 2})
	var x platform.Exchange[int64]
	x.Begin(6, exchangeOwner(6, 3), 3, 2, size8, nil)
	messages := stageRound(t, &x, cl, func(mach int) {
		for _, p := range []int{1, 0} {
			for k := 0; k < 2; k++ {
				x.Stage(mach, p).Send(4, int64(100*mach+10*p+k))
			}
		}
	})
	want := []int64{0, 1, 10, 11, 100, 101, 110, 111, 200, 201, 210, 211}
	if got := x.At(4); !slices.Equal(got, want) {
		t.Fatalf("vertex 4 read %v, want %v", got, want)
	}
	if messages != int64(len(want)) {
		t.Fatalf("Deliver counted %d messages, want %d", messages, len(want))
	}
	for _, v := range []int32{0, 1, 2, 3, 5} {
		if got := x.At(v); len(got) != 0 {
			t.Fatalf("vertex %d read %v, want nothing", v, got)
		}
	}
}

// TestExchangeCombinerFoldsLeftToRight folds one digit per producer of 3
// machines × 2 producers into vertex 0 with a combiner that does not
// commute: only the left-to-right fold in delivery order gives 123456.
func TestExchangeCombinerFoldsLeftToRight(t *testing.T) {
	cl := cluster.New(cluster.Config{Machines: 3, Threads: 2})
	var x platform.Exchange[int64]
	concat := func(a, b int64) int64 { return 10*a + b }
	x.Begin(3, exchangeOwner(3, 3), 3, 2, size8, concat)
	stageRound(t, &x, cl, func(mach int) {
		x.Stage(mach, 1).Send(0, int64(2*mach+2))
		x.Stage(mach, 0).Send(0, int64(2*mach+1))
	})
	if got := x.At(0); !slices.Equal(got, []int64{123456}) {
		t.Fatalf("vertex 0 read %v, want [123456]", got)
	}
	if got := x.At(1); got != nil {
		t.Fatalf("vertex 1 read %v, want nothing", got)
	}
}

// TestExchangeChargesOnlyRemoteMessages sends, from machine 0 of 3,
// messages whose size is their value to a vertex of every machine: only
// the two to other machines' vertices are charged, at size + 4 bytes.
func TestExchangeChargesOnlyRemoteMessages(t *testing.T) {
	for _, combine := range []func(a, b int64) int64{nil, func(a, b int64) int64 { return a + b }} {
		cl := cluster.New(cluster.Config{Machines: 3, Threads: 1})
		var x platform.Exchange[int64]
		x.Begin(6, exchangeOwner(6, 3), 3, 1, func(m int64) int64 { return m }, combine)
		stageRound(t, &x, cl, func(mach int) {
			if mach == 0 {
				st := x.Stage(0, 0)
				st.Send(3, 1000) // machine 0's own vertex: free
				st.Send(1, 10)
				st.Send(5, 20)
			}
		})
		if got, want := cl.Traffic(), int64(10+4+20+4); got != want {
			t.Fatalf("combiner %v: traffic %d bytes, want %d", combine != nil, got, want)
		}
	}
}

// TestExchangeCurrentInboxSurvivesUntilBarrier reads the last round's
// messages while the next round opens, stages and delivers: they must not
// change until Barrier, which then shows the new ones.
func TestExchangeCurrentInboxSurvivesUntilBarrier(t *testing.T) {
	for _, combine := range []func(a, b int64) int64{nil, func(a, b int64) int64 { return a + b }} {
		cl := cluster.New(cluster.Config{Machines: 2, Threads: 2})
		var x platform.Exchange[int64]
		x.Begin(4, exchangeOwner(4, 2), 2, 2, size8, combine)
		stageRound(t, &x, cl, func(mach int) {
			x.Stage(mach, 0).Send(1, int64(mach+1))
		})
		first := slices.Clone(x.At(1))
		x.Open()
		if err := cl.RunRound(func(mach int, _ *cluster.Threads) error {
			x.Stage(mach, 1).Send(1, 50)
			x.Stage(mach, 0).Send(2, 60)
			x.Deliver(cl, mach)
			if got := x.At(1); !slices.Equal(got, first) {
				t.Errorf("combiner %v: vertex 1 read %v during the next round, want %v", combine != nil, got, first)
			}
			if got := x.At(2); len(got) != 0 {
				t.Errorf("combiner %v: vertex 2 read %v before the barrier, want nothing", combine != nil, got)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		x.Barrier(cl)
		want := []int64{50, 50}
		if combine != nil {
			want = []int64{100}
		}
		if got := x.At(1); !slices.Equal(got, want) {
			t.Fatalf("combiner %v: vertex 1 read %v after the barrier, want %v", combine != nil, got, want)
		}
	}
}

// TestExchangeWarmRoundAllocatesNothing runs whole rounds — Open, every
// producer staging, Deliver on every machine, Barrier — once the buffers
// have grown: on both delivery paths a round allocates nothing.
func TestExchangeWarmRoundAllocatesNothing(t *testing.T) {
	const n, machines, producers = 64, 3, 2
	owner := exchangeOwner(n, machines)
	for _, combine := range []func(a, b int64) int64{nil, func(a, b int64) int64 { return a + b }} {
		cl := cluster.New(cluster.Config{Machines: machines, Threads: producers})
		var x platform.Exchange[int64]
		x.Begin(n, owner, machines, producers, size8, combine)
		round := func() {
			x.Open()
			for mach := 0; mach < machines; mach++ {
				for p := 0; p < producers; p++ {
					for v := int32(0); v < n; v++ {
						x.Stage(mach, p).Send((v*7+int32(p))%n, int64(v))
					}
				}
				x.Deliver(cl, mach)
			}
			x.Barrier(cl)
		}
		round() // warm-up: grows the stages and the inbox
		if allocs := testing.AllocsPerRun(10, round); allocs != 0 {
			t.Fatalf("combiner %v: a warm round allocated %.0f objects, want 0", combine != nil, allocs)
		}
	}
}
