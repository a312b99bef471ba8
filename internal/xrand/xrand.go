// Package xrand provides the deterministic pseudo-random primitives shared
// by the dataset generators. Generators must be reproducible from a seed
// (the benchmark ships reference outputs), so all randomness in this
// repository flows through SplitMix64 — a small, fast, well-distributed
// generator with a one-word state that can be cheaply forked per vertex,
// per block, or per worker without coordination.
package xrand

import "math"

// Rand is a SplitMix64 pseudo-random generator. The zero value is a valid
// generator with seed 0.
type Rand struct {
	state uint64
}

// New returns a generator with the given seed.
func New(seed uint64) *Rand { return &Rand{state: seed} }

// Fork derives an independent generator from the current one and a stream
// identifier, for per-item determinism independent of iteration order.
func (r *Rand) Fork(stream uint64) *Rand {
	return New(Mix(r.state ^ Mix(stream)))
}

// gamma is SplitMix64's Weyl increment: every draw adds it to the state.
const gamma = 0x9e3779b97f4a7c15

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	r.state += gamma
	return Mix(r.state)
}

// Skip advances the generator past the next n draws in O(1): the state is
// a Weyl sequence, so n steps add n·gamma (mod 2^64). A consumer that
// takes a fixed number of draws per item can therefore start the stream of
// item i anywhere, which is what lets a sequential stream be generated in
// parallel without changing a bit of it.
func (r *Rand) Skip(n uint64) { r.state += n * gamma }

// Mix is the SplitMix64 finalizer, usable directly as a hash.
func Mix(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Intn returns a uniform integer in [0, n). It panics when n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n).
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("xrand: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Exp returns an exponentially distributed float64 with mean 1.
func (r *Rand) Exp() float64 {
	u := r.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -math.Log(1 - u)
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
