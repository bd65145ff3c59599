// Package stats provides the deterministic random-number generation,
// probability distributions, summary statistics, and regression machinery
// used throughout the simulator.
//
// Everything in this package is deterministic given a seed: simulations must
// be reproducible run-to-run so that the experiment tables in EXPERIMENTS.md
// can be regenerated exactly.
package stats

import "math/bits"

// RNG is a small, fast, deterministic pseudo-random number generator based
// on xorshift128+ with a splitmix64-seeded state. It is not safe for
// concurrent use; give each simulated thread its own RNG (see Split).
type RNG struct {
	s0, s1 uint64
}

// splitmix64 advances a 64-bit state and returns a well-mixed output. It is
// used for seeding so that small or similar seeds still yield independent
// streams.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator seeded from seed. Two RNGs with different seeds
// produce statistically independent streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state as if freshly constructed with seed.
func (r *RNG) Seed(seed uint64) {
	state := seed
	r.s0 = splitmix64(&state)
	r.s1 = splitmix64(&state)
	if r.s0 == 0 && r.s1 == 0 {
		r.s0 = 1 // xorshift state must be non-zero
	}
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	x, y := r.s0, r.s1
	r.s0 = y
	x ^= x << 23
	x ^= x >> 17
	x ^= y ^ (y >> 26)
	r.s1 = x
	return x + y
}

// Skip advances the generator by n outputs, leaving it exactly where n
// calls of Uint64 would.
func (r *RNG) Skip(n int) {
	x, y := r.s0, r.s1
	for ; n > 0; n-- {
		x ^= x << 23
		x ^= x >> 17
		x ^= y ^ (y >> 26)
		x, y = y, x
	}
	r.s0, r.s1 = x, y
}

// Split derives a new, independent generator from this one. The parent
// stream advances by one draw.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("stats: Uint64n called with n == 0")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded draws.
	thresh := -n % n
	for {
		hi, lo := bits.Mul64(r.Uint64(), n)
		if lo >= thresh {
			return hi
		}
	}
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	// 53 random mantissa bits.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}
