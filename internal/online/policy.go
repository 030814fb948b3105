package online

import (
	"fmt"
	"math"
)

// Queued is the policy- and shedder-visible view of one waiting
// request. The engine hands policies the class heads in arrival-merge
// order — ties broken on (time, class index, sequence), the
// simulator-wide merge convention — so "first index with property P" is
// itself a deterministic tie-break. Shedders get the per-class waiting
// slices, each in arrival order; neither may modify what it is handed.
type Queued struct {
	// Class and Seq identify the request (class index, per-class arrival
	// sequence number).
	Class int
	Seq   int
	// ArrivalSec is the request's absolute arrival time.
	ArrivalSec float64
	// DeadlineSec is the request's earliest effective absolute deadline:
	// arrival plus the smallest of its class's in-range model deadlines,
	// or +Inf when the class carries no deadline for any model of its
	// scenario (the request is unconstrained).
	DeadlineSec float64
}

// PackageView is the policy-visible state of the package about to
// dispatch: which replica it is, what class it last served, and how
// long its current same-class run is.
type PackageView struct {
	// Index is the package's replica index (the dispatch tie-break after
	// time: equal free times dispatch lowest index first).
	Index int
	// Class is the package's currently configured class, -1 before its
	// first request. Serving a different class charges that class's
	// SwitchInSec reconfiguration.
	Class int
	// Run counts the package's consecutive completed services of Class
	// (0 before the first request, reset on every switch).
	Run int
	// NowSec is the dispatch time.
	NowSec float64
}

// Policy picks which waiting request a freed package serves next. The
// engine calls Pick once per dispatch with q holding one head per class
// that has requests waiting — the class's earliest waiting arrival — in
// arrival-merge order, never empty; Pick returns an index into q. A
// waiting request's effective deadline is its arrival plus a per-class
// constant, so within a class, arrival order is deadline order: each
// built-in policy's choice over the whole queue is some class's head,
// and choosing among heads costs O(classes), not O(queue depth).
// Implementations must be deterministic pure functions of their
// receiver value and the arguments — no hidden state, no RNGs — so
// simulations stay bit-identical regardless of how many run
// concurrently. An out-of-range index fails the simulation loudly
// rather than silently serving the wrong request.
type Policy interface {
	// Name is the policy's wire vocabulary name ("fifo", "edf",
	// "switch-aware").
	Name() string
	// Pick selects the next request: an index into q, the class heads
	// (never empty).
	Pick(q []Queued, pkg PackageView) int
}

// FIFO serves requests strictly in arrival order — the single-queue
// discipline of the original simulator, and the engine default.
type FIFO struct{}

// Name implements Policy.
func (FIFO) Name() string { return "fifo" }

// Pick returns the first head: the earliest waiting arrival (ties
// already broken on class by the heads' order).
func (FIFO) Pick(q []Queued, _ PackageView) int { return 0 }

// EDF serves the request with the earliest effective deadline first
// (arrival + the class's tightest in-range model deadline).
// Unconstrained requests (no deadline, DeadlineSec = +Inf) rank after
// every constrained one and fall back to arrival order among
// themselves; deadline ties also break on arrival order.
type EDF struct{}

// Name implements Policy.
func (EDF) Name() string { return "edf" }

// Pick returns the first index with the minimal effective deadline.
func (EDF) Pick(q []Queued, _ PackageView) int {
	best := 0
	for i := 1; i < len(q); i++ {
		if q[i].DeadlineSec < q[best].DeadlineSec {
			best = i
		}
	}
	return best
}

// DefaultMaxRun is SwitchAware's hysteresis bound when MaxRun is unset:
// up to eight same-class services amortize one reconfiguration before
// the package yields to the queue head.
const DefaultMaxRun = 8

// SwitchAware amortizes schedule-switch costs: while the package's
// current same-class run is shorter than MaxRun and a same-class
// request is waiting, it serves the earliest such request; otherwise it
// falls back to FIFO (which, if it picks another class, pays one switch
// and starts a new run). The hysteresis bound caps how long other
// classes can be held back, so no class starves: after at most MaxRun
// consecutive same-class services the queue head runs regardless.
type SwitchAware struct {
	// MaxRun bounds consecutive same-class services (0 = DefaultMaxRun).
	MaxRun int
}

// Name implements Policy.
func (SwitchAware) Name() string { return "switch-aware" }

// Pick implements the hysteresis rule.
func (p SwitchAware) Pick(q []Queued, pkg PackageView) int {
	maxRun := p.MaxRun
	if maxRun <= 0 {
		maxRun = DefaultMaxRun
	}
	if pkg.Class >= 0 && pkg.Run < maxRun {
		for i := range q {
			if q[i].Class == pkg.Class {
				return i
			}
		}
	}
	return 0
}

// PolicyByName resolves a wire-format policy name ("" and "fifo" →
// FIFO, "edf" → EDF, "switch-aware" → SwitchAware with the default
// hysteresis bound).
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "", "fifo":
		return FIFO{}, nil
	case "edf":
		return EDF{}, nil
	case "switch-aware":
		return SwitchAware{}, nil
	default:
		return nil, fmt.Errorf("online: unknown policy %q (know: %v)", name, PolicyNames())
	}
}

// PolicyNames lists the wire vocabulary.
func PolicyNames() []string { return []string{"fifo", "edf", "switch-aware"} }

// minDeadlineOffset is the class's tightest relative deadline over the
// models of its scenario — the same membership rule the deadline scorer
// applies, so a stray out-of-range Deadlines key influences neither the
// SLA accounting nor EDF ordering. Returns +Inf when no model of the
// scenario is bounded.
func (c *Class) minDeadlineOffset() float64 {
	min := math.Inf(1)
	for mi := 0; mi < len(c.Scenario.Models); mi++ {
		if d, ok := c.Deadlines[mi]; ok && d < min {
			min = d
		}
	}
	return min
}
