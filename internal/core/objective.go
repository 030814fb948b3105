package core

import (
	"fmt"

	"example.com/scar/internal/eval"
)

// objectiveKind drives the proxy expectations the PROV and SEG engines
// use before full evaluation is possible.
type objectiveKind int

const (
	kindLatency objectiveKind = iota
	kindEnergy
	kindEDP
)

// Objective couples the user-facing optimization metric (Definition 10)
// with the proxy kind the engines use for expectations. The paper's three
// searches — Latency Search, Energy Search, EDP Search — are the built-
// ins; Custom wraps any user score (Section III-D allows user-defined
// metrics) with EDP-style proxies.
type Objective struct {
	// Name labels the objective in reports ("latency", "energy",
	// "edp", or a custom name).
	Name string
	// Score reduces schedule metrics to the minimized value.
	Score eval.Score

	kind objectiveKind
}

// LatencyObjective returns the paper's Latency Search objective.
func LatencyObjective() Objective {
	return Objective{Name: "latency", Score: eval.LatencyScore, kind: kindLatency}
}

// EnergyObjective returns the Energy Search objective.
func EnergyObjective() Objective {
	return Objective{Name: "energy", Score: eval.EnergyScore, kind: kindEnergy}
}

// EDPObjective returns the EDP Search objective (the paper's default).
func EDPObjective() Objective {
	return Objective{Name: "edp", Score: eval.EDPScore, kind: kindEDP}
}

// CustomObjective wraps a user-defined score; proxies behave like EDP.
func CustomObjective(name string, score eval.Score) Objective {
	return Objective{Name: name, Score: score, kind: kindEDP}
}

// ObjectiveByName resolves "latency", "energy" or "edp".
func ObjectiveByName(name string) (Objective, error) {
	switch name {
	case "latency":
		return LatencyObjective(), nil
	case "energy":
		return EnergyObjective(), nil
	case "edp":
		return EDPObjective(), nil
	default:
		return Objective{}, fmt.Errorf("core: unknown objective %q", name)
	}
}

// proxy reduces an (expected latency, expected energy) pair to the
// objective's proxy value, used for E(P_i) in Equation (2) and for
// Heuristic 1's independent segmentation ranking.
func (o Objective) proxy(latSec, energyPJ float64) float64 {
	switch o.kind {
	case kindLatency:
		return latSec
	case kindEnergy:
		return energyPJ
	default:
		return latSec * energyPJ
	}
}

// windowScore reduces a window evaluation to the objective's value for
// per-window ranking.
func (o Objective) windowScore(wm eval.WindowEval) float64 {
	return o.Score(eval.Metrics{
		LatencySec: wm.LatencySec,
		EnergyJ:    wm.EnergyJ,
		EDP:        wm.LatencySec * wm.EnergyJ,
	})
}
