// Package prng provides deterministic pseudo-random number generation for
// the oblivmc library.
//
// All randomness consumed by the oblivious algorithms in this module is
// drawn from pre-generated "tapes" (see Tape). Pinning the coins to a tape
// makes the access pattern of a randomized data-oblivious algorithm a
// deterministic function of (input length, tape), which is what lets the
// test suite check obliviousness as exact trace equality across different
// inputs. It also makes every experiment reproducible from a single seed.
//
// The generator is xoshiro256**, seeded via splitmix64. It is not a CSPRNG;
// the paper's algorithms only need statistically uniform coins, and the
// security notion being reproduced concerns access patterns, not key
// material.
package prng

// SplitMix64 advances the splitmix64 state and returns the next value.
// It is used for seeding and for cheap stateless mixing.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 returns a well-mixed function of x (stateless splitmix64 finalizer).
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Source is a xoshiro256** generator.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed via splitmix64.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		src.s[i] = SplitMix64(&sm)
	}
	// xoshiro must not be seeded with all zeros; splitmix64 of any seed
	// cannot produce four zero outputs in a row, but guard anyway.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 0x9e3779b97f4a7c15
	}
	return &src
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next pseudo-random value.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s[1]*5, 7) * 9
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = rotl(s.s[3], 45)
	return result
}

// Uint64n returns a uniform value in [0, n). n must be > 0.
// Uses Lemire's multiply-shift rejection method.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("prng: Uint64n(0)")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return s.Uint64() & (n - 1)
	}
	// Rejection sampling on the high bits to avoid modulo bias.
	threshold := -n % n // = (2^64 - n) mod n
	for {
		v := s.Uint64()
		hi, lo := mul64(v, n)
		if lo >= threshold {
			return hi
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + w1>>32
	lo = a * b
	return
}

// Intn returns a uniform int in [0, n). n must be > 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("prng: Intn with n <= 0")
	}
	return int(s.Uint64n(uint64(n)))
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Perm returns a uniform random permutation of [0, n) (Fisher–Yates).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Tape is a pre-generated sequence of random words. Oblivious algorithms
// take a *Tape rather than a live generator so that the coins (and hence
// the access pattern) are fixed before execution begins.
type Tape struct {
	words []uint64
	pos   int
}

// NewTape draws n words from seed.
func NewTape(seed uint64, n int) *Tape {
	src := New(seed)
	w := make([]uint64, n)
	for i := range w {
		w[i] = src.Uint64()
	}
	return &Tape{words: w}
}

// Next returns the next word on the tape. It panics if the tape is
// exhausted: the caller is responsible for sizing tapes, and silently
// recycling coins would invalidate the obliviousness analysis.
func (t *Tape) Next() uint64 {
	if t.pos >= len(t.words) {
		panic("prng: tape exhausted")
	}
	w := t.words[t.pos]
	t.pos++
	return w
}

// NextN returns the next word reduced to [0, n).
func (t *Tape) NextN(n uint64) uint64 {
	if n == 0 {
		panic("prng: NextN(0)")
	}
	if n&(n-1) == 0 {
		return t.Next() & (n - 1)
	}
	hi, _ := mul64(t.Next(), n)
	return hi
}

// At returns word i without consuming tape position. Algorithms that
// conceptually give coin i to element i use At so the mapping is positional
// (and therefore independent of execution order under parallelism).
func (t *Tape) At(i int) uint64 {
	return t.words[i]
}

// Len returns the number of words on the tape.
func (t *Tape) Len() int { return len(t.words) }

// Remaining returns the number of unconsumed words.
func (t *Tape) Remaining() int { return len(t.words) - t.pos }

// Reset rewinds the tape to the beginning.
func (t *Tape) Reset() { t.pos = 0 }
