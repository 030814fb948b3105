package core

import "math/rand"

// randSource is an exact copy of math/rand's default source, the
// additive lagged-Fibonacci generator x[n] = x[n-273] + x[n-607]
// mod 2^64: for every seed it yields the Int63 and Uint64 streams of
// rand.NewSource(seed), so a *rand.Rand built on it draws the same
// values, and every digest recorded against math/rand stands. Every
// seeded stream of a search runs on it.
//
// Only Seed is computed differently. math/rand fills the 607 state words
// from one serial chain of 1,841 Lehmer steps x ← 48271·x mod (2^31−1)
// from the seed. Step k of that chain is seed·48271^k mod (2^31−1), so
// with the powers tabulated (rngPow) every word takes three independent
// multiply-and-fold steps and no word waits for the one before it.
//
// The zero value must be seeded before use.
type randSource struct {
	tap, feed int
	vec       [rngLen]int64
}

const (
	rngLen  = 607
	rngTap  = 273
	lehmerA = 48271
	lehmerM = 1<<31 - 1
)

var (
	// rngPow[i] holds 48271^k mod (2^31−1) for the three Lehmer steps
	// k = 21+3i, 22+3i, 23+3i that state word i is built from; math/rand
	// discards the first 20 steps.
	rngPow [rngLen][3]uint64
	// rngCooked is math/rand's table of the same name, xored into the
	// state words.
	rngCooked [rngLen]int64
)

func init() {
	x := uint64(1)
	for range 20 {
		x = x * lehmerA % lehmerM
	}
	for i := range rngPow {
		for j := range rngPow[i] {
			x = x * lehmerA % lehmerM
			rngPow[i][j] = x
		}
	}

	// Recover rngCooked from rand.NewSource(1): its first 607 draws
	// overwrite each state word once, so they are its state after the
	// draws; undoing the additions newest first gives the seeded state,
	// whose words are rngCooked xor the Lehmer words of seed 1. Seed,
	// while rngCooked is still zero, yields those Lehmer words.
	ref := rand.New(rand.NewSource(1))
	var s, lehmer randSource
	lehmer.Seed(1)
	s.tap, s.feed = lehmer.tap, lehmer.feed
	for range rngLen {
		s.Uint64()
		s.vec[s.feed] = int64(ref.Uint64())
	}
	for range rngLen {
		s.vec[s.feed] -= s.vec[s.tap]
		s.tap, s.feed = (s.tap+1)%rngLen, (s.feed+1)%rngLen
	}
	for i := range rngCooked {
		rngCooked[i] = s.vec[i] ^ lehmer.vec[i]
	}
}

// newRandSource returns a source seeded with seed.
func newRandSource(seed int64) *randSource {
	s := new(randSource)
	s.Seed(seed)
	return s
}

// mulMod returns x·y mod 2^31−1 for x, y in [1, 2^31−2]. Folding the
// bits above 31 onto the low ones keeps the residue: the first fold
// takes the product below 2^32, the second below 2^31. The product is
// never a multiple of the prime modulus, so the result is never the
// modulus itself; two folds reduce exactly, without a branch.
func mulMod(x, y uint64) uint64 {
	p := x * y
	p = p&lehmerM + p>>31
	return p&lehmerM + p>>31
}

// Seed initializes the source to the state rand.NewSource(seed) starts
// in.
//
//scar:hotpath every tree-search task re-seeds its worker's source
func (s *randSource) Seed(seed int64) {
	s.tap, s.feed = 0, rngLen-rngTap
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	for i := range s.vec {
		pow := &rngPow[i]
		w := mulMod(x, pow[0])<<40 ^ mulMod(x, pow[1])<<20 ^ mulMod(x, pow[2])
		s.vec[i] = int64(w) ^ rngCooked[i]
	}
}

// Uint64 returns the next 64-bit value of the stream.
//
//scar:hotpath
func (s *randSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next value of the stream as a non-negative int64.
//
//scar:hotpath
func (s *randSource) Int63() int64 {
	return int64(s.Uint64() & (1<<63 - 1))
}

// shuffle permutes p exactly as rand.New(s).Shuffle(len(p), swap) with a
// swapping swap would, for len(p) below 2^31: a Fisher–Yates shuffle
// drawing on int31n.
//
//scar:hotpath root-tuple sampling shuffles once per attempt
func (s *randSource) shuffle(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := s.int31n(uint32(i + 1))
		p[i], p[j] = p[j], p[i]
	}
}

// int31n is math/rand's unexported int31n, Lemire's multiply-shift
// method: a value in [0, n) from one draw, with rejection only when the
// low word lands below 2^32 mod n.
func (s *randSource) int31n(n uint32) uint32 {
	prod := uint64(s.uint32()) * uint64(n)
	if low := uint32(prod); low < n {
		thresh := -n % n
		for low < thresh {
			prod = uint64(s.uint32()) * uint64(n)
			low = uint32(prod)
		}
	}
	return uint32(prod >> 32)
}

// uint32 is rand.Rand.Uint32.
func (s *randSource) uint32() uint32 {
	return uint32(s.Int63() >> 31)
}
