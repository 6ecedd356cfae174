// Package rng provides small, fast, deterministic pseudo-random number
// generators used throughout the simulator.
//
// Every stochastic component in the repository draws from an explicitly
// passed *rng.Source rather than a global generator, so that experiments
// are reproducible from a single seed and independent subsystems can be
// given statistically independent substreams via Fork.
//
// The generator is xoshiro256** seeded through SplitMix64, the combination
// recommended by the xoshiro authors. It is not cryptographically secure;
// it is a simulation RNG.
package rng

import "math"

// Source is a deterministic pseudo-random number generator.
// The zero value is not valid; use New.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed. Two Sources built from the same
// seed produce identical streams.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		sm, src.s[i] = splitMix64(sm)
	}
	// xoshiro256** must not be seeded with all zeros; SplitMix64 of any
	// seed cannot produce four consecutive zeros, but guard anyway.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 0x9E3779B97F4A7C15
	}
	return &src
}

// splitMix64 advances the SplitMix64 state and returns (newState, output).
func splitMix64(state uint64) (uint64, uint64) {
	state += 0x9E3779B97F4A7C15
	z := state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return state, z
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Fill fills dst with the next len(dst) outputs, exactly the values and
// the final state that len(dst) successive Uint64 calls would produce.
// The four state words stay in locals for the whole batch, so a bulk
// draw costs no loads or stores of the state per value.
func (r *Source) Fill(dst []uint64) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := range dst {
		dst[i] = rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// Uint64n returns a uniform integer in [0, n). It panics if n == 0.
// Uses Lemire's multiply-shift rejection method.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	thresh := (0 - n) % n // 2^64 mod n: reject lo below this for uniformity
	for {
		hi, lo := mul64(r.Uint64(), n)
		if lo >= thresh {
			return hi
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xFFFFFFFF
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	lo1 := t & mask
	hi1 := t >> 32
	lo1 += aLo * bHi
	hi = aHi*bHi + hi1 + (lo1 >> 32)
	lo = a * b
	return hi, lo
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Float64Open returns a uniform float64 in (0, 1), never exactly 0 or 1.
// Useful as input to inverse CDFs that diverge at the endpoints.
func (r *Source) Float64Open() float64 {
	for {
		f := (float64(r.Uint64()>>11) + 0.5) * (1.0 / (1 << 53))
		if f > 0 && f < 1 {
			return f
		}
	}
}

// NormFloat64 returns a standard normal variate (mean 0, stddev 1),
// computed with the Box–Muller transform (polar form).
func (r *Source) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *Source) ExpFloat64() float64 {
	return -math.Log(r.Float64Open())
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Source) Perm(n int) []int {
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

// Shuffle permutes the elements indexed [0, n) using swap, à la
// math/rand.Shuffle.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Fork derives a new Source whose stream is statistically independent of
// the parent's subsequent output. Forking consumes one value from the
// parent. Label distinguishes multiple forks taken at the same point.
func (r *Source) Fork(label uint64) *Source {
	return New(r.Uint64() ^ (label * 0x9E3779B97F4A7C15) ^ 0xD1B54A32D192ED03)
}

// Hash64 returns the first value New(seed).Uint64() would produce,
// without constructing a Source. xoshiro256**'s first output depends only
// on s[1], so a single SplitMix64 step suffices; callers that consume one
// value per seed (e.g. counter-keyed stochastic fields) avoid the
// allocation and the three unused state words. Guaranteed identical to
// the Source path, enforced by test.
func Hash64(seed uint64) uint64 {
	_, s1 := splitMix64(seed + 0x9E3779B97F4A7C15) // advance past s[0]
	return rotl(s1*5, 7) * 9
}

// HashFloat64Open returns the first value New(seed).Float64Open() would
// produce. The (0,1) retry loop in Float64Open can never fire on its
// first draw — (x>>11 + 0.5)·2⁻⁵³ is already strictly inside (0,1) — so
// this is a single hash.
func HashFloat64Open(seed uint64) float64 {
	return (float64(Hash64(seed)>>11) + 0.5) * (1.0 / (1 << 53))
}
