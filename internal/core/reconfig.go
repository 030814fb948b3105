package core

import "example.com/scar/internal/workload"

// This file is the MCM-Reconfig engine (Section IV-A): it characterizes
// time windows from the expected (dataflow-composition-weighted) layer
// latencies of Equation (1) and assigns layers to windows with the
// first-fit greedy packing of Algorithm 1.

// layerRange is a model's contiguous layer slice [First, Last] assigned
// to one window; Empty ranges use First > Last.
type layerRange struct {
	First, Last int
}

func (r layerRange) empty() bool { return r.First > r.Last }
func (r layerRange) numLayers() int {
	if r.empty() {
		return 0
	}
	return r.Last - r.First + 1
}

// windowAssignment maps each model to its layer range in one window.
type windowAssignment []layerRange // indexed by model

// partitioning is one MCM-Reconfig candidate: layer-to-window assignments
// for every (non-empty) window, in window order.
type partitioning struct {
	splits  int
	windows []windowAssignment
}

// timeHorizon returns the worst-case expected latency across models — the
// horizon that MCM-Reconfig partitions into periodic windows.
func timeHorizon(exp [][]float64) float64 {
	var worst float64
	for _, lats := range exp {
		var sum float64
		for _, l := range lats {
			sum += l
		}
		if sum > worst {
			worst = sum
		}
	}
	return worst
}

// greedyPack implements Algorithm 1: first-fit packing of each model's
// layers into nsplits+1 periodic windows over the horizon. A layer whose
// expected completion crosses a window boundary is deferred to the next
// window; the final window accepts everything (Slack = None).
func greedyPack(exp [][]float64, horizon float64, nsplits int) partitioning {
	nwin := nsplits + 1
	boundaries := make([]float64, nwin)
	for w := 0; w < nwin; w++ {
		boundaries[w] = horizon * float64(w+1) / float64(nwin)
	}
	windows := make([]windowAssignment, nwin)
	for w := range windows {
		windows[w] = make(windowAssignment, len(exp))
		for mi := range windows[w] {
			windows[w][mi] = layerRange{First: 0, Last: -1}
		}
	}
	for mi, lats := range exp {
		winIdx := 0
		used := 0.0
		start := 0
		for li, lat := range lats {
			for {
				if winIdx == nwin-1 {
					// Last window: Slack = None, accept.
					break
				}
				if lat <= boundaries[winIdx]-used {
					break
				}
				// Flush the current window and jump to its
				// boundary.
				if li > start {
					windows[winIdx][mi] = layerRange{First: start, Last: li - 1}
				}
				used = boundaries[winIdx]
				start = li
				winIdx++
			}
			used += lat
		}
		windows[winIdx][mi] = layerRange{First: start, Last: len(lats) - 1}
	}
	// Skip trivial windows with no layers (the paper's dynamic window
	// count control).
	var kept []windowAssignment
	for _, w := range windows {
		empty := true
		for _, r := range w {
			if !r.empty() {
				empty = false
				break
			}
		}
		if !empty {
			kept = append(kept, w)
		}
	}
	return partitioning{splits: nsplits, windows: kept}
}

// uniformPack distributes each model's layers uniformly (by count) across
// nsplits+1 windows — the packing baseline of the Section V-E ablation.
func uniformPack(sc *workload.Scenario, nsplits int) partitioning {
	nwin := nsplits + 1
	windows := make([]windowAssignment, nwin)
	for w := range windows {
		windows[w] = make(windowAssignment, len(sc.Models))
		for mi := range windows[w] {
			windows[w][mi] = layerRange{First: 0, Last: -1}
		}
	}
	for mi, model := range sc.Models {
		n := len(model.Layers)
		for w := 0; w < nwin; w++ {
			first := n * w / nwin
			last := n*(w+1)/nwin - 1
			if last >= first {
				windows[w][mi] = layerRange{First: first, Last: last}
			}
		}
	}
	return partitioning{splits: nsplits, windows: windows}
}

// packer builds one run's MCM-Reconfig candidate with the given number
// of splits.
type packer func(r *run, splits int) partitioning

// greedyPacking is Algorithm 1 over the run's expected layer latencies.
func greedyPacking(r *run, splits int) partitioning {
	return greedyPack(r.expLat, timeHorizon(r.expLat), splits)
}

// uniformPacking is the Section V-E packing ablation.
func uniformPacking(r *run, splits int) partitioning {
	return uniformPack(r.sc, splits)
}

// candidatePartitionings generates the MCM-Reconfig candidates: the
// packer's partitionings at every split count from 0 to Options.NSplits
// (or exactly NSplits under Options.ExactSplits), deduplicated on the
// exact layer ranges of their windows.
func candidatePartitionings(r *run, pack packer) []partitioning {
	lo := 0
	if r.opts.ExactSplits {
		lo = r.opts.NSplits
	}
	var out []partitioning
	seen := map[string]bool{}
	var key []byte
	for j := lo; j <= r.opts.NSplits; j++ {
		p := pack(r, j)
		// Every window has one range per model, so the concatenated
		// window keys are exact too.
		key = key[:0]
		for _, w := range p.windows {
			key = appendAssignmentKey(key, w)
		}
		if !seen[string(key)] {
			seen[string(key)] = true
			out = append(out, p)
		}
	}
	return out
}
