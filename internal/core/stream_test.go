package core

import (
	"math"
	"slices"
	"testing"
)

// seeded returns a stream seeded with seed.
func seeded(seed int64) *stream {
	r := new(stream)
	r.seed(seed)
	return r
}

// draws returns the next n values of r.
func draws(r *stream, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.next()
	}
	return out
}

// The stream is splitmix64: from seed 0 it yields the generator's
// published first outputs.
func TestStreamIsSplitmix64(t *testing.T) {
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	if got := draws(seeded(0), len(want)); !slices.Equal(got, want) {
		t.Errorf("seed 0 draws %#x, want %#x", got, want)
	}
}

// Reseeding a stream that has drawn, of every kind, replays a fresh
// stream of the same seed.
func TestStreamReseedReplays(t *testing.T) {
	seeds := []int64{0, 1, -1, 42, math.MinInt64, math.MaxInt64, mixSeed(7, 1, 2, 3)}
	var used stream
	for i, seed := range seeds {
		want := draws(seeded(seed), 64)
		used.intn(1 + i)
		used.float64()
		used.shuffle(make([]int, 5+i))
		used.seed(seed)
		if got := draws(&used, 64); !slices.Equal(got, want) {
			t.Fatalf("seed %d: reseeded stream draws %v, fresh %v", seed, got[:4], want[:4])
		}
	}
}

// intn stays in [0, n) for bounds 1, 2, every power of two, 2^31−1 and
// the largest int; on a bound of 3 its values are close to uniform.
func TestStreamIntnRange(t *testing.T) {
	bounds := []int{1, 2, 3, 1<<31 - 1, math.MaxInt64}
	for k := 2; k < 63; k++ {
		bounds = append(bounds, 1<<k)
	}
	r := seeded(5)
	for _, n := range bounds {
		for range 2000 {
			if v := r.intn(n); v < 0 || v >= n {
				t.Fatalf("intn(%d) = %d", n, v)
			}
		}
	}
	var counts [3]int
	for range 30000 {
		counts[r.intn(3)]++
	}
	for v, c := range counts {
		if c < 9500 || c > 10500 {
			t.Errorf("intn(3) drew %d %d times in 30000, want about 10000", v, c)
		}
	}
	for range 10000 {
		if f := r.float64(); f < 0 || f >= 1 {
			t.Fatalf("float64() = %v", f)
		}
	}
}

// shuffle yields a permutation of its input at every length, and over
// many seeds moves every element.
func TestStreamShufflePermutes(t *testing.T) {
	for n := range 40 {
		for seed := range int64(20) {
			p := make([]int, n)
			for i := range p {
				p[i] = i
			}
			seeded(seed).shuffle(p)
			sorted := slices.Sorted(slices.Values(p))
			for i, v := range sorted {
				if v != i {
					t.Fatalf("n %d, seed %d: shuffle gave %v, not a permutation", n, seed, p)
				}
			}
		}
	}
	moved := make([]bool, 10)
	for seed := range int64(50) {
		p := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
		seeded(seed).shuffle(p)
		for i, v := range p {
			moved[v] = moved[v] || v != i
		}
	}
	if slices.Contains(moved, false) {
		t.Errorf("elements never moved by 50 shuffles: %v", moved)
	}
}

// The stream a search task sees depends only on its mixSeed
// coordinates: one worker's stream, reseeded per task as the scheduler
// does, gives each task the same draws whatever tasks ran on it before
// and in whatever order, and distinct coordinates give distinct streams.
func TestStreamDependsOnlyOnCoordinates(t *testing.T) {
	type task struct{ window, alloc, combo int64 }
	var tasks []task
	for w := range int64(4) {
		for a := range int64(3) {
			for c := range int64(5) {
				tasks = append(tasks, task{w, a, c})
			}
		}
	}
	run := func(order []int) map[task][]uint64 {
		var worker stream
		got := map[task][]uint64{}
		for k, i := range order {
			// Predecessors leave the stream at varied positions.
			for range k % 7 {
				worker.next()
			}
			tk := tasks[i]
			worker.seed(mixSeed(1, 2, tk.window, tk.alloc, tk.combo))
			got[tk] = draws(&worker, 16)
		}
		return got
	}
	order := make([]int, len(tasks))
	for i := range order {
		order[i] = i
	}
	forward := run(order)
	seeded(3).shuffle(order)
	shuffled := run(order)
	firsts := map[uint64]task{}
	for _, tk := range tasks {
		if !slices.Equal(forward[tk], shuffled[tk]) {
			t.Fatalf("task %+v draws %v in one order, %v in another", tk, forward[tk][:4], shuffled[tk][:4])
		}
		if other, dup := firsts[forward[tk][0]]; dup {
			t.Fatalf("tasks %+v and %+v start on the same draw", tk, other)
		}
		firsts[forward[tk][0]] = tk
	}
}
