package core

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// This file is the PROV engine (Section IV-B): it estimates how many
// chiplet nodes each model needs in a window. Allocations are
// dataflow-agnostic ("nodes"), either by the uniform-distribution rule of
// Equation (2) or by bounded exhaustive enumeration (the Section V-E
// ablation).

// provision computes node allocations for the active models of a window.
// weights[i] is E(P_i) for active model i (the objective's proxy of the
// model's expected cost in this window); layers[i] is the model's layer
// count in the window (an allocation never exceeds it — segments cannot
// outnumber layers); chiplets is |C|.
func provisionRule(weights []float64, layers []int, chiplets, allocCap int) ([]int, error) {
	n := len(weights)
	if n == 0 {
		return nil, fmt.Errorf("core: provisioning an empty window")
	}
	if n > chiplets {
		return nil, fmt.Errorf("core: %d models exceed %d chiplets in a window", n, chiplets)
	}
	var total float64
	for _, w := range weights {
		total += w
	}
	alloc := make([]int, n)
	for i, w := range weights {
		share := 1.0 / float64(n)
		if total > 0 {
			share = w / total
		}
		alloc[i] = int(share*float64(chiplets) + 0.5)
		// Every model gets at least one node to progress.
		if alloc[i] < 1 {
			alloc[i] = 1
		}
		if alloc[i] > layers[i] {
			alloc[i] = layers[i]
		}
		if allocCap > 0 && alloc[i] > allocCap {
			// Heuristic 2: node allocation constraint.
			alloc[i] = allocCap
		}
	}
	// Shrink largest allocations until the package fits.
	for sum(alloc) > chiplets {
		maxI := 0
		for i := 1; i < n; i++ {
			if alloc[i] > alloc[maxI] {
				maxI = i
			}
		}
		if alloc[maxI] <= 1 {
			return nil, fmt.Errorf("core: cannot fit %d models on %d chiplets", n, chiplets)
		}
		alloc[maxI]--
	}
	return alloc, nil
}

// provisionExhaustive enumerates allocation vectors with sum == chiplets
// (or the largest feasible sum), each entry in [1, min(layers_i, cap)],
// capped at maxOptions, with the rule-based allocation first.
func provisionExhaustive(weights []float64, layers []int, chiplets, allocCap, maxOptions int) ([][]int, error) {
	rule, err := provisionRule(weights, layers, chiplets, allocCap)
	if err != nil {
		return nil, err
	}
	n := len(weights)
	limit := make([]int, n)
	for i := range limit {
		limit[i] = layers[i]
		if allocCap > 0 && limit[i] > allocCap {
			limit[i] = allocCap
		}
		if limit[i] > chiplets {
			limit[i] = chiplets
		}
	}
	options := [][]int{rule}
	seen := map[string]bool{string(appendIntsKey(nil, rule)): true}
	var key []byte
	var rec func(i, remaining int, cur []int)
	rec = func(i, remaining int, cur []int) {
		if len(options) >= maxOptions {
			return
		}
		if i == n {
			return
		}
		if i == n-1 {
			if remaining >= 1 && remaining <= limit[i] {
				cand := append(append([]int{}, cur...), remaining)
				key = appendIntsKey(key[:0], cand)
				if !seen[string(key)] {
					seen[string(key)] = true
					options = append(options, cand)
				}
			}
			return
		}
		maxHere := limit[i]
		if maxHere > remaining-(n-i-1) {
			maxHere = remaining - (n - i - 1)
		}
		for v := 1; v <= maxHere; v++ {
			rec(i+1, remaining-v, append(cur, v))
			if len(options) >= maxOptions {
				return
			}
		}
	}
	// Target the full package; if per-model limits make that
	// infeasible, fall back to the largest feasible sum.
	target := chiplets
	if s := sum(limit); s < target {
		target = s
	}
	rec(0, target, nil)
	slices.SortStableFunc(options[1:], slices.Compare)
	return options, nil
}

func sum(a []int) int {
	s := 0
	for _, v := range a {
		s += v
	}
	return s
}

// appendIntsKey appends an exact fingerprint of a to dst and returns it:
// eight bytes per value, so no two distinct vectors of one length alias.
func appendIntsKey(dst []byte, a []int) []byte {
	for _, v := range a {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	return dst
}
