package core

import "math/bits"

// stream is a splitmix64 random stream: one word of state, advanced by
// the golden-ratio increment and scrambled by mix on every draw. Every
// seeded draw of a search reads one: SCHED's root-tuple sampling, SEG's
// sampled segmentations and the evolutionary search. Seeding is one
// assignment, so a pool worker's stream reseeds per task for nothing, and
// the stream a task sees depends only on its seed, which mixSeed derives
// from the task's coordinates. The zero value is the stream of seed 0.
type stream uint64

// golden is splitmix64's increment, 2^64 over the golden ratio.
const golden = 0x9e3779b97f4a7c15

// mix is splitmix64's finalizer, shared by mixSeed and stream.next.
func mix(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}

// mixSeed derives a child RNG seed from a base seed and a salt path with
// splitmix64 finalization rounds. Sibling search tasks draw their own
// streams from their (candidate, window, alloc, combo) coordinates
// instead of sharing one stream, which is what keeps parallel and serial
// runs bit-identical: the stream a task sees does not depend on how many
// draws its predecessors made.
func mixSeed(base int64, salts ...int64) int64 {
	z := uint64(base) + golden
	for _, s := range salts {
		z = mix(z + uint64(s)*0xbf58476d1ce4e5b9 + golden)
	}
	return int64(z)
}

// seed restarts the stream at seed, used as the state as it is.
//
//scar:hotpath every tree-search task reseeds its worker's stream
func (r *stream) seed(seed int64) { *r = stream(seed) }

// next returns the stream's next 64 bits.
//
//scar:hotpath
func (r *stream) next() uint64 {
	*r += golden
	return mix(uint64(*r))
}

// intn returns a uniform value in [0, n) for n > 0: Lemire's
// multiply-shift, rejecting the draws whose low word falls below
// 2^64 mod n, so no value is favoured.
//
//scar:hotpath
func (r *stream) intn(n int) int {
	bound := uint64(n)
	hi, lo := bits.Mul64(r.next(), bound)
	if lo < bound {
		for thresh := -bound % bound; lo < thresh; {
			hi, lo = bits.Mul64(r.next(), bound)
		}
	}
	return int(hi)
}

// float64 returns a uniform value in [0, 1) with 53 random bits.
//
//scar:hotpath
func (r *stream) float64() float64 {
	return float64(r.next()>>11) * 0x1p-53
}

// shuffle permutes p uniformly: Fisher–Yates over intn.
//
//scar:hotpath root-tuple sampling shuffles once per attempt
func (r *stream) shuffle(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}
