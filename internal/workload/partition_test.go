package workload

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// This file holds the map-based check of Theorems 1 and 2, kept as a
// test-only oracle: a set of segments must exactly partition the layers
// of its time window, and the set of time windows must exactly partition
// the layers of the scenario. Both reduce to "cover and disjoint" over
// LayerRef sets, plus the dependency requirement that each model's layers
// appear in order. eval.Schedule.Validate checks the same conditions
// with per-model cursors; schedule_validate_test.go compares the two.

// RefSet is a set of layer references.
type RefSet map[LayerRef]struct{}

// NewRefSet builds a set from a slice of refs.
func NewRefSet(refs []LayerRef) RefSet {
	s := make(RefSet, len(refs))
	for _, r := range refs {
		s[r] = struct{}{}
	}
	return s
}

// Contains reports membership.
func (s RefSet) Contains(r LayerRef) bool {
	_, ok := s[r]
	return ok
}

// ValidatePartition checks the cover-and-disjoint condition shared by
// Theorems 1 and 2: the parts must be pairwise disjoint and their union
// must equal universe. It returns a descriptive error on the first
// violation found.
func ValidatePartition(universe []LayerRef, parts [][]LayerRef) error {
	want := NewRefSet(universe)
	seen := make(RefSet, len(universe))
	for pi, part := range parts {
		for _, r := range part {
			if !want.Contains(r) {
				return fmt.Errorf("workload: part %d contains %v which is outside the universe", pi, r)
			}
			if seen.Contains(r) {
				return fmt.Errorf("workload: %v appears in more than one part (part %d)", r, pi)
			}
			seen[r] = struct{}{}
		}
	}
	if len(seen) != len(want) {
		for r := range want {
			if !seen.Contains(r) {
				return fmt.Errorf("workload: %v is not covered by any part", r)
			}
		}
	}
	return nil
}

// ValidateModelOrder checks that within the concatenation of parts (in part
// order), each model's layer indices appear in strictly increasing order
// and form a contiguous prefix-to-suffix chain. This encodes the layer
// dependency constraint: a model's layer j may only run after layer j-1.
func ValidateModelOrder(parts [][]LayerRef) error {
	next := map[int]int{} // model -> expected next index
	first := map[int]int{}
	for pi, part := range parts {
		for _, r := range part {
			exp, ok := next[r.Model]
			if !ok {
				first[r.Model] = r.Index
				next[r.Model] = r.Index + 1
				continue
			}
			if r.Index != exp {
				return fmt.Errorf("workload: model %d layer %d out of order in part %d (expected %d)", r.Model, r.Index, pi, exp)
			}
			next[r.Model] = exp + 1
		}
	}
	return nil
}

func refs(model int, from, to int) []LayerRef {
	out := make([]LayerRef, 0, to-from)
	for i := from; i < to; i++ {
		out = append(out, LayerRef{Model: model, Index: i})
	}
	return out
}

func TestValidatePartitionAccepts(t *testing.T) {
	universe := append(refs(0, 0, 4), refs(1, 0, 3)...)
	parts := [][]LayerRef{
		append(refs(0, 0, 2), refs(1, 0, 1)...),
		append(refs(0, 2, 4), refs(1, 1, 3)...),
	}
	if err := ValidatePartition(universe, parts); err != nil {
		t.Errorf("valid partition rejected: %v", err)
	}
}

func TestValidatePartitionRejectsOverlap(t *testing.T) {
	universe := refs(0, 0, 3)
	parts := [][]LayerRef{refs(0, 0, 2), refs(0, 1, 3)} // layer 1 twice
	if err := ValidatePartition(universe, parts); err == nil {
		t.Error("overlapping partition accepted (Theorem 1 exclusivity violated)")
	}
}

func TestValidatePartitionRejectsGap(t *testing.T) {
	universe := refs(0, 0, 3)
	parts := [][]LayerRef{refs(0, 0, 1), refs(0, 2, 3)} // layer 1 missing
	if err := ValidatePartition(universe, parts); err == nil {
		t.Error("gapped partition accepted (Theorem 1 coverage violated)")
	}
}

func TestValidatePartitionRejectsForeign(t *testing.T) {
	universe := refs(0, 0, 2)
	parts := [][]LayerRef{refs(0, 0, 2), refs(3, 0, 1)}
	if err := ValidatePartition(universe, parts); err == nil {
		t.Error("foreign ref accepted")
	}
}

func TestValidateModelOrder(t *testing.T) {
	good := [][]LayerRef{refs(0, 0, 2), append(refs(0, 2, 3), refs(1, 0, 2)...)}
	if err := ValidateModelOrder(good); err != nil {
		t.Errorf("ordered parts rejected: %v", err)
	}
	bad := [][]LayerRef{refs(0, 2, 3), refs(0, 0, 2)} // layer 2 before 0,1
	if err := ValidateModelOrder(bad); err == nil {
		t.Error("dependency-violating order accepted")
	}
}

// Property: any random split of a universe into k contiguous chunks per
// model is a valid partition; the same split with one element removed is
// not; the same split with one element duplicated is not.
func TestQuickPartitionProperty(t *testing.T) {
	f := func(seed int64, n8 uint8, k8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(n8%20) + 2
		k := int(k8%4) + 1
		universe := refs(0, 0, n)
		// Random contiguous split points.
		cuts := map[int]struct{}{}
		for len(cuts) < k && len(cuts) < n-1 {
			cuts[1+rng.Intn(n-1)] = struct{}{}
		}
		points := []int{0}
		for c := range cuts {
			points = append(points, c)
		}
		points = append(points, n)
		sortInts(points)
		var parts [][]LayerRef
		for i := 0; i+1 < len(points); i++ {
			parts = append(parts, refs(0, points[i], points[i+1]))
		}
		if err := ValidatePartition(universe, parts); err != nil {
			return false
		}
		// Drop one element -> invalid.
		mut := make([][]LayerRef, len(parts))
		copy(mut, parts)
		if len(mut[0]) > 0 {
			mut[0] = mut[0][1:]
			if err := ValidatePartition(universe, mut); err == nil {
				return false
			}
		}
		// Duplicate one element -> invalid.
		dup := make([][]LayerRef, len(parts))
		copy(dup, parts)
		dup[len(dup)-1] = append([]LayerRef{universe[0]}, dup[len(dup)-1]...)
		return ValidatePartition(universe, dup) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func TestComplexityMotivationalExample(t *testing.T) {
	// Paper Section II-D: ResNet-50 (50 layers) + UNet (23 layers) on 36
	// chiplets reaches ~O(10^56)... the spatial term alone is
	// 36^73 ~ 10^113; the paper's 10^56 figure corresponds to the
	// interleaving-dominant characterization at moderate C. We assert
	// both terms are huge and the interleaving term matches the
	// multinomial exactly.
	lg := Log10InterleavingComplexity([]int{50, 23})
	if lg < 18 || lg > 20 {
		t.Errorf("log10 multinomial(73;50,23) = %.2f, want ~19", lg)
	}
	spatial := Log10SpatialComplexity(36, 73)
	if spatial < 100 {
		t.Errorf("log10 36^73 = %.1f, want > 100", spatial)
	}
	s := Scenario{Models: []Model{
		{Name: "r50", Layers: make([]Layer, 50)},
		{Name: "unet", Layers: make([]Layer, 23)},
	}}
	total := Log10SchedulingComplexity(s, 36)
	if total < 56 {
		t.Errorf("total log10 complexity = %.1f, want >= 56 (paper's O(10^56) lower bound)", total)
	}
}

func TestComplexityDegenerate(t *testing.T) {
	if got := Log10SpatialComplexity(0, 5); got != 0 {
		t.Errorf("zero chiplets: %v", got)
	}
	if got := Log10InterleavingComplexity(nil); got != 0 {
		t.Errorf("no models: %v", got)
	}
	// Single model: no interleaving freedom.
	if got := Log10InterleavingComplexity([]int{7}); got != 0 {
		t.Errorf("single model interleaving = %v, want 0", got)
	}
}
