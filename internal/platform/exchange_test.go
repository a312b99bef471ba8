package platform_test

import (
	"math"
	"slices"
	"testing"

	"graphalytics/internal/cluster"
	"graphalytics/internal/mplane"
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

// stageRound runs one exchange round on cl: every machine stages what
// stage puts in its producers' stages, then delivers. It returns the
// messages Deliver counted.
func stageRound[T mplane.Message](t *testing.T, x *platform.Exchange[T], cl *cluster.Cluster, stage func(mach int)) int64 {
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
	x.Begin(6, exchangeOwner(6, 3), 3, 2, platform.NoCombiner, 8, nil)
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

// TestExchangeCombinerFoldsLeftToRight sums two float64 messages per
// producer of 3 machines × 2 producers into vertex 0, producer 1 staging
// before producer 0. The test first shows that its inputs are
// order-sensitive: summed with the producers, or the machines, taken in
// reverse, they give other bits. Only the left-to-right fold in delivery
// order (machine-major, producer-major, staging order) gives the bits it
// then asserts.
func TestExchangeCombinerFoldsLeftToRight(t *testing.T) {
	sent := [3][2][]float64{ // [machine][producer]
		{{1e16 + 2, -3}, {0.5, 2}},
		{{0.5, 1}, {7, 2}},
		{{-3, 1}, {7, 1}},
	}
	sum := func(machines, producers []int) float64 {
		var s float64
		first := true
		for _, m := range machines {
			for _, p := range producers {
				for _, msg := range sent[m][p] {
					if first {
						s, first = msg, false
					} else {
						s += msg
					}
				}
			}
		}
		return s
	}
	want := sum([]int{0, 1, 2}, []int{0, 1})
	for _, other := range []struct {
		order string
		sum   float64
	}{
		{"reversed producers", sum([]int{0, 1, 2}, []int{1, 0})},
		{"reversed machines", sum([]int{2, 1, 0}, []int{0, 1})},
	} {
		if math.Float64bits(other.sum) == math.Float64bits(want) {
			t.Fatalf("the inputs summed in %s order give the left-to-right bits %v: they cannot tell the orders apart", other.order, want)
		}
	}
	cl := cluster.New(cluster.Config{Machines: 3, Threads: 2})
	var x platform.Exchange[float64]
	x.Begin(3, exchangeOwner(3, 3), 3, 2, platform.SumCombiner, 8, nil)
	stageRound(t, &x, cl, func(mach int) {
		for _, p := range []int{1, 0} {
			for _, msg := range sent[mach][p] {
				x.Stage(mach, p).Send(0, msg)
			}
		}
	})
	if got := x.At(0); len(got) != 1 || math.Float64bits(got[0]) != math.Float64bits(want) {
		t.Fatalf("vertex 0 read %v, want [%v]", got, want)
	}
	if got := x.At(1); got != nil {
		t.Fatalf("vertex 1 read %v, want nothing", got)
	}
}

// TestExchangeMinCombinerKeepsTheMinimum folds messages on 3 machines × 2
// producers into vertex 1 with the min combiner: it reads one message,
// the least, and on float64 the bits math.Min gives (-0 below +0).
func TestExchangeMinCombinerKeepsTheMinimum(t *testing.T) {
	t.Run("int64", func(t *testing.T) {
		sent := []int64{9, -4, 7, math.MaxInt64, -3, 5}
		testMinCombiner(t, sent, -4)
	})
	t.Run("float64", func(t *testing.T) {
		negZero := math.Copysign(0, -1)
		sent := []float64{3, 0, math.Inf(1), negZero, 0, 2.5}
		testMinCombiner(t, sent, negZero)
	})
}

// testMinCombiner has producer p of machine mach send sent[2*mach+p] to
// vertex 1 and requires it to read exactly [want], bit for bit.
func testMinCombiner[T int64 | float64](t *testing.T, sent []T, want T) {
	t.Helper()
	cl := cluster.New(cluster.Config{Machines: 3, Threads: 2})
	var x platform.Exchange[T]
	x.Begin(3, exchangeOwner(3, 3), 3, 2, platform.MinCombiner, 8, nil)
	stageRound(t, &x, cl, func(mach int) {
		for p := 0; p < 2; p++ {
			x.Stage(mach, p).Send(1, sent[2*mach+p])
		}
	})
	// Equal with the same sign bit: -0 and +0 differ.
	got := x.At(1)
	if len(got) != 1 || got[0] != want || math.Signbit(float64(got[0])) != math.Signbit(float64(want)) {
		t.Fatalf("vertex 1 read %v, want [%v]", got, want)
	}
}

// TestExchangeChargesOnlyRemoteMessages sends, from machine 0 of 3, one
// message to a vertex of every machine: only the two to other machines'
// vertices are charged, at size + 4 bytes. Sizes are either the message's
// value (a per-message size function) or a fixed 8 bytes (priced by
// count), with and without a combiner.
func TestExchangeChargesOnlyRemoteMessages(t *testing.T) {
	for _, combine := range []platform.Combiner{platform.NoCombiner, platform.SumCombiner} {
		for _, c := range []struct {
			name   string
			sizeOf func(int64) int64
			want   int64
		}{
			{"sized", func(m int64) int64 { return m }, 10 + 4 + 20 + 4},
			{"fixed", nil, 2 * (8 + 4)},
		} {
			cl := cluster.New(cluster.Config{Machines: 3, Threads: 1})
			var x platform.Exchange[int64]
			x.Begin(6, exchangeOwner(6, 3), 3, 1, combine, 8, c.sizeOf)
			stageRound(t, &x, cl, func(mach int) {
				if mach == 0 {
					st := x.Stage(0, 0)
					st.Send(3, 1000) // machine 0's own vertex: free
					st.Send(1, 10)
					st.Send(5, 20)
				}
			})
			if got := cl.Traffic(); got != c.want {
				t.Fatalf("combiner %d, %s: traffic %d bytes, want %d", combine, c.name, got, c.want)
			}
		}
	}
}

// TestExchangeCurrentInboxSurvivesUntilBarrier reads the last round's
// messages while the next round opens, stages and delivers: they must not
// change until Barrier, which then shows the new ones.
func TestExchangeCurrentInboxSurvivesUntilBarrier(t *testing.T) {
	for _, combine := range []platform.Combiner{platform.NoCombiner, platform.SumCombiner} {
		cl := cluster.New(cluster.Config{Machines: 2, Threads: 2})
		var x platform.Exchange[int64]
		x.Begin(4, exchangeOwner(4, 2), 2, 2, combine, 8, nil)
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
				t.Errorf("combiner %d: vertex 1 read %v during the next round, want %v", combine, got, first)
			}
			if got := x.At(2); len(got) != 0 {
				t.Errorf("combiner %d: vertex 2 read %v before the barrier, want nothing", combine, got)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		x.Barrier(cl)
		want := []int64{50, 50}
		if combine != platform.NoCombiner {
			want = []int64{100}
		}
		if got := x.At(1); !slices.Equal(got, want) {
			t.Fatalf("combiner %d: vertex 1 read %v after the barrier, want %v", combine, got, want)
		}
	}
}

// TestExchangeWarmRoundAllocatesNothing runs whole rounds — Open, every
// producer staging, Deliver on every machine, Barrier — once the buffers
// have grown: with every combiner, on one machine (nothing priced) and on
// three with fixed and per-message sizes, a round allocates nothing.
func TestExchangeWarmRoundAllocatesNothing(t *testing.T) {
	for _, combine := range []platform.Combiner{platform.NoCombiner, platform.SumCombiner, platform.MinCombiner} {
		for _, machines := range []int{1, 3} {
			for _, sizeOf := range []func(float64) int64{nil, func(m float64) int64 { return int64(m) }} {
				testWarmRound(t, combine, machines, sizeOf)
			}
		}
	}
}

// testWarmRound grows an exchange with one round and requires the next
// to allocate nothing.
func testWarmRound(t *testing.T, combine platform.Combiner, machines int, sizeOf func(float64) int64) {
	t.Helper()
	const n, producers = 64, 2
	cl := cluster.New(cluster.Config{Machines: machines, Threads: producers})
	var x platform.Exchange[float64]
	x.Begin(n, exchangeOwner(n, machines), machines, producers, combine, 8, sizeOf)
	round := func() {
		x.Open()
		for mach := 0; mach < machines; mach++ {
			for p := 0; p < producers; p++ {
				for v := int32(0); v < n; v++ {
					x.Stage(mach, p).Send((v*7+int32(p))%n, float64(v))
				}
			}
			x.Deliver(cl, mach)
		}
		x.Barrier(cl)
	}
	round() // warm-up: grows the stages and the inbox
	if allocs := testing.AllocsPerRun(10, round); allocs != 0 {
		t.Fatalf("combiner %d, %d machines, sized %v: a warm round allocated %.0f objects, want 0", combine, machines, sizeOf != nil, allocs)
	}
	if machines > 1 && cl.Traffic() == 0 {
		t.Fatalf("combiner %d, %d machines, sized %v: the rounds charged no traffic", combine, machines, sizeOf != nil)
	}
}
