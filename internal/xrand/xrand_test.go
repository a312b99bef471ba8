package xrand_test

import (
	"testing"
	"testing/quick"

	"graphalytics/internal/xrand"
)

func TestDeterminism(t *testing.T) {
	a, b := xrand.New(42), xrand.New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must yield the same stream")
		}
	}
	if xrand.New(1).Uint64() == xrand.New(2).Uint64() {
		t.Fatal("different seeds should differ")
	}
}

func TestForkIndependence(t *testing.T) {
	base := xrand.New(7)
	f1 := base.Fork(1)
	f2 := base.Fork(2)
	if f1.Uint64() == f2.Uint64() {
		t.Fatal("forked streams must differ")
	}
	// Forking must not depend on how much the forks were consumed.
	again := xrand.New(7).Fork(1)
	if again.Uint64() != xrand.New(7).Fork(1).Uint64() {
		t.Fatal("fork must be deterministic")
	}
}

// TestSkipMatchesDraws pins Skip to the stream it jumps over: Skip(n) lands
// where n draws land, and jumps compose, also across the 2^64 wrap of the
// state.
func TestSkipMatchesDraws(t *testing.T) {
	random := xrand.New(99).Uint64() % 5000
	for _, n := range []uint64{0, 1, 2, 1000, random} {
		drawn, skipped := xrand.New(17), xrand.New(17)
		for i := uint64(0); i < n; i++ {
			drawn.Uint64()
		}
		skipped.Skip(n)
		for i := 0; i < 4; i++ {
			if a, b := drawn.Uint64(), skipped.Uint64(); a != b {
				t.Fatalf("n=%d: draw %d after Skip is %x, after %d draws %x", n, i, b, n, a)
			}
		}
	}
	for _, ab := range [][2]uint64{{0, 0}, {3, 5}, {1 << 63, 1 << 63}, {^uint64(0), 2}, {random << 50, ^uint64(0) - 7}} {
		a, b := ab[0], ab[1]
		split, joined := xrand.New(5), xrand.New(5)
		split.Skip(a)
		split.Skip(b)
		joined.Skip(a + b) // wraps mod 2^64, as the state does
		if x, y := split.Uint64(), joined.Uint64(); x != y {
			t.Fatalf("Skip(%d) then Skip(%d) draws %x, Skip(a+b) draws %x", a, b, x, y)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	check := func(seed uint64) bool {
		r := xrand.New(seed)
		for i := 0; i < 50; i++ {
			f := r.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestIntnRange(t *testing.T) {
	r := xrand.New(3)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if v := r.Int63n(1 << 40); v < 0 || v >= 1<<40 {
			t.Fatalf("Int63n out of range: %d", v)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) must panic")
		}
	}()
	xrand.New(1).Intn(0)
}

func TestExpPositive(t *testing.T) {
	r := xrand.New(11)
	var sum float64
	const n = 10000
	for i := 0; i < n; i++ {
		e := r.Exp()
		if e < 0 {
			t.Fatalf("Exp() = %v, want >= 0", e)
		}
		sum += e
	}
	if mean := sum / n; mean < 0.9 || mean > 1.1 {
		t.Fatalf("Exp mean = %v, want ~1", mean)
	}
}

func TestPerm(t *testing.T) {
	p := xrand.New(5).Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("invalid permutation at %d", v)
		}
		seen[v] = true
	}
}
