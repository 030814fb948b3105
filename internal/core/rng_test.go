package core

import (
	"math"
	"math/rand"
	"testing"
)

// TestRandMatchesReference checks randSource against math/rand, its
// reference: seeded alike, a *rand.Rand on each draws the same Int63,
// Uint64, Intn (powers of two, 31-bit and 63-bit bounds) and Float64
// values, and randSource.shuffle permutes as rand.Rand.Shuffle does, over
// 2,000 random seeds (200 in -short mode) and the edge seeds of the seed
// reduction, and again after re-seeding a source that has already drawn.
func TestRandMatchesReference(t *testing.T) {
	seeds := []int64{
		0, 1, -1, lehmerM, -lehmerM, lehmerM - 1, 1 << 31, 1<<31 + 1, -1 << 31,
		89482311, 2 * lehmerM, math.MinInt64, math.MaxInt64,
	}
	random := 2000
	if testing.Short() {
		random = 200
	}
	pick := rand.New(rand.NewSource(20))
	for range random {
		seeds = append(seeds, pick.Int63()-pick.Int63())
	}
	bounds := []int{1, 2, 3, 7, 9, 64, 1000, 1 << 20, 1<<31 - 1, 1 << 31, 1<<31 + 1, 3 << 40, math.MaxInt64}

	// drawn runs n steps of every kind of draw on both generators and
	// reports the first mismatch.
	drawn := func(seed int64, src *randSource, got, want *rand.Rand, n int) {
		t.Helper()
		var gotPerm, wantPerm [9]int
		for i := range n {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d, step %d: Int63 = %d, want %d", seed, i, g, w)
			}
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d, step %d: Uint64 = %d, want %d", seed, i, g, w)
			}
			b := bounds[i%len(bounds)]
			if g, w := got.Intn(b), want.Intn(b); g != w {
				t.Fatalf("seed %d, step %d: Intn(%d) = %d, want %d", seed, i, b, g, w)
			}
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d, step %d: Float64 = %v, want %v", seed, i, g, w)
			}
			for j := range gotPerm {
				gotPerm[j], wantPerm[j] = j, j
			}
			src.shuffle(gotPerm[:])
			want.Shuffle(len(wantPerm), func(a, b int) { wantPerm[a], wantPerm[b] = wantPerm[b], wantPerm[a] })
			if gotPerm != wantPerm {
				t.Fatalf("seed %d, step %d: shuffle = %v, want %v", seed, i, gotPerm, wantPerm)
			}
		}
	}

	src := new(randSource)
	got := rand.New(src)
	for i, seed := range seeds {
		src.Seed(seed)
		want := rand.New(rand.NewSource(seed))
		drawn(seed, src, got, want, 1000)

		// Re-seed both after they have drawn.
		reseed := seeds[(i+1)%len(seeds)]
		got.Seed(reseed)
		want.Seed(reseed)
		drawn(reseed, src, got, want, 100)
	}
}

// BenchmarkRandSeed compares re-seeding math/rand's source with
// re-seeding randSource, the cost every tree-search task pays once.
func BenchmarkRandSeed(b *testing.B) {
	b.Run("math-rand", func(b *testing.B) {
		src, seed := rand.NewSource(1), int64(0)
		for b.Loop() {
			seed++
			src.Seed(seed)
		}
	})
	b.Run("randSource", func(b *testing.B) {
		src, seed := new(randSource), int64(0)
		for b.Loop() {
			seed++
			src.Seed(seed)
		}
	})
}
