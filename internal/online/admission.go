package online

import (
	"fmt"
	"math"
)

// This file is the simulator's admission-control layer: a bounded
// waiting queue with low/high watermark backpressure and pluggable
// load-shedding policies. Without it the engine fails open — every
// arrival queues, and past saturation the queue (and every latency
// percentile) grows without bound while SLA attainment collapses for
// every class together. Admission control turns overload into a
// measured regime instead: arrivals the fleet cannot serve in time are
// rejected at the door, the report accounts for them per class, and
// the accepted requests keep meeting their deadlines.
//
// Shedding decisions are part of the simulation's deterministic
// contract: they are pure functions of the engine state at the
// arrival's admission point (queue contents, package free times,
// backpressure state), evaluated single-threaded in arrival-merge
// order, so reports remain bit-identical at any concurrency.

// Admission configures the engine's admission control. The zero value
// (and a nil *Admission in Config) admits everything — the legacy
// fail-open behavior.
type Admission struct {
	// MaxQueueDepth hard-bounds the waiting queue: an arrival that
	// finds MaxQueueDepth requests already waiting is shed with reason
	// ReasonQueueFull regardless of the shedder's opinion (0 = no
	// bound). The count is the instantaneous waiting queue at the
	// arrival's admission point, including any request the current
	// dispatch is about to serve.
	MaxQueueDepth int
	// HighWatermark and LowWatermark drive the backpressure hysteresis:
	// when the waiting queue reaches HighWatermark the engine engages
	// backpressure (AdmissionView.Engaged), and it stays engaged until
	// the queue drains to LowWatermark or below. LowWatermark 0 means
	// drain-to-empty; HighWatermark 0 disables the watermark machinery.
	// Queue length can only grow at arrivals, so evaluating transitions
	// at each arrival's admission point is exact, not sampled.
	HighWatermark int
	LowWatermark  int
	// Shedder screens every arrival (nil = DropTail{}, which sheds only
	// while backpressure is engaged). The shedder sees the backpressure
	// state and decides for itself whether to honor it: DeadlineAware
	// screens unconditionally, because a request that is already doomed
	// at arrival stays doomed whether or not the queue is long.
	Shedder Shedder
}

// ReasonQueueFull is the ShedOutcome.Reason of hard queue-bound sheds;
// shedder-driven sheds carry the shedder's Name() instead.
const ReasonQueueFull = "queue-full"

// Validate rejects inconsistent admission configurations before any
// simulation work runs; the serve layer calls it at the wire boundary
// so a bad /simulate admission block fails before any search work.
func (a *Admission) Validate() error {
	if a.MaxQueueDepth < 0 {
		return fmt.Errorf("online: negative admission queue depth %d", a.MaxQueueDepth)
	}
	if a.HighWatermark < 0 || a.LowWatermark < 0 {
		return fmt.Errorf("online: negative admission watermark (low %d, high %d)", a.LowWatermark, a.HighWatermark)
	}
	if a.HighWatermark == 0 && a.LowWatermark > 0 {
		return fmt.Errorf("online: low watermark %d without a high watermark", a.LowWatermark)
	}
	if a.HighWatermark > 0 && a.LowWatermark > a.HighWatermark {
		return fmt.Errorf("online: low watermark %d above high watermark %d", a.LowWatermark, a.HighWatermark)
	}
	if a.MaxQueueDepth > 0 && a.HighWatermark > a.MaxQueueDepth {
		return fmt.Errorf("online: high watermark %d above queue bound %d", a.HighWatermark, a.MaxQueueDepth)
	}
	return nil
}

// shedder resolves the configured shedding policy (nil = DropTail).
func (a *Admission) shedder() Shedder {
	if a.Shedder == nil {
		return DropTail{}
	}
	return a.Shedder
}

// ShedClassView is one class's admission-relevant constants.
type ShedClassView struct {
	// ServiceSec is the class's scheduled service latency — the
	// backlog-estimate unit.
	ServiceSec float64
	// MaxWaitSec is the largest switch-inclusive wait (StartSec -
	// ArrivalSec) a request of the class can absorb with every bounded
	// model still on time: the minimum over bounded models of
	// (deadline - model latency). +Inf when no model is bounded.
	MaxWaitSec float64
}

// AdmissionView is the shedder-visible engine state at one arrival's
// admission point, beside the waiting slices Shedder.Shed receives.
// Like policies, shedders must be deterministic pure functions of their
// receiver value and arguments, and must not modify either.
type AdmissionView struct {
	// Packages is the fleet's replica count.
	Packages int
	// NowSec is the screened request's arrival time.
	NowSec float64
	// EarliestFreeSec is the earliest absolute time any package frees
	// (it may be in the past — an idle package — or the future).
	EarliestFreeSec float64
	// Engaged reports the watermark hysteresis state: true from the
	// queue reaching HighWatermark until it drains to LowWatermark.
	Engaged bool
	// Classes carries each class's admission constants, indexed like
	// Config.Classes.
	Classes []ShedClassView
}

// Shedder decides whether an arriving request is rejected at admission.
// The engine consults it for every arrival (after the hard queue bound)
// with the current waiting queue and an AdmissionView; returning true
// sheds the request, which then never queues, executes, or counts in
// any latency/SLA aggregate — only in the shed accounting.
type Shedder interface {
	// Name is the shedder's wire vocabulary name ("drop-tail",
	// "deadline-aware"); it doubles as the ShedOutcome.Reason.
	Name() string
	// Shed reports whether to reject arr given the waiting queue and
	// the engine view. waiting[c] holds class c's waiting requests in
	// arrival order, indexed like Config.Classes; the slices are the
	// engine's own queue, so Shed must not modify them.
	Shed(arr Queued, waiting [][]Queued, view AdmissionView) bool
}

// DropTail sheds every arrival while backpressure is engaged — the
// classic watermark discipline: reject until the queue drains to the
// low watermark, then admit freely until it climbs back to the high
// one. Without watermarks it never sheds (the hard MaxQueueDepth bound
// still applies, making pure bounded-queue drop-tail).
type DropTail struct{}

// Name implements Shedder.
func (DropTail) Name() string { return "drop-tail" }

// Shed implements the engaged-mode rule.
func (DropTail) Shed(_ Queued, _ [][]Queued, view AdmissionView) bool { return view.Engaged }

// DeadlineAware sheds exactly the requests whose queue-implied start
// already busts a deadline: it estimates the arrival's service start
// from the fleet state (earliest package free time plus the waiting
// queue's total service demand spread over the replicas) and rejects
// the request when that implied wait exceeds what its tightest bounded
// model can absorb. It screens every arrival regardless of the
// watermark state — a request doomed at an empty queue (the in-service
// residual alone can exceed the deadline slack) is shed too, so the
// accepted stream stays schedulable instead of every class degrading
// together.
type DeadlineAware struct {
	// MarginSec is extra headroom subtracted from the tolerable wait
	// before the doomed test, covering costs the backlog estimate does
	// not see (schedule-switch reconfigurations, non-FIFO dispatch
	// ordering). 0 = no margin.
	MarginSec float64
}

// Name implements Shedder.
func (DeadlineAware) Name() string { return "deadline-aware" }

// Shed implements the queue-implied-start rule. The backlog is each
// class's waiting count times its service time, summed in class order:
// O(classes) per arrival, whatever the queue depth.
func (d DeadlineAware) Shed(arr Queued, waiting [][]Queued, view AdmissionView) bool {
	maxWait := view.Classes[arr.Class].MaxWaitSec
	if math.IsInf(maxWait, 1) {
		return false // unconstrained class: nothing to bust
	}
	var backlogSec float64
	for c, q := range waiting {
		backlogSec += float64(len(q)) * view.Classes[c].ServiceSec
	}
	impliedWait := view.EarliestFreeSec - view.NowSec
	if impliedWait < 0 {
		impliedWait = 0 // an idle package serves the queue head now
	}
	impliedWait += backlogSec / float64(view.Packages)
	return impliedWait > maxWait-d.MarginSec
}

// ShedderByName resolves the wire-format shedder vocabulary ("" and
// "drop-tail" → DropTail, "deadline-aware" → DeadlineAware with no
// margin).
func ShedderByName(name string) (Shedder, error) {
	switch name {
	case "", "drop-tail":
		return DropTail{}, nil
	case "deadline-aware":
		return DeadlineAware{}, nil
	default:
		return nil, fmt.Errorf("online: unknown shedder %q (know: %v)", name, ShedderNames())
	}
}

// ShedderNames lists the shedder wire vocabulary.
func ShedderNames() []string { return []string{"drop-tail", "deadline-aware"} }

// ShedOutcome is one rejected request's record, the shed counterpart of
// RequestOutcome.
type ShedOutcome struct {
	// Class and Seq identify the request (class index, per-class
	// arrival sequence number).
	Class int `json:"class"`
	Seq   int `json:"seq"`
	// ArrivalSec is the request's arrival time.
	ArrivalSec float64 `json:"arrival_sec"`
	// Reason is ReasonQueueFull for hard-bound sheds, the shedder's
	// name otherwise.
	Reason string `json:"reason"`
}

// maxWaitOffset is the class's largest tolerable switch-inclusive wait:
// the minimum over bounded models (same membership rule as the SLA
// scorer and EDF) of deadline minus model latency. +Inf when no model
// of the scenario is bounded.
func (c *Class) maxWaitOffset() float64 {
	maxWait := math.Inf(1)
	for mi := 0; mi < len(c.Scenario.Models); mi++ {
		d, ok := c.Deadlines[mi]
		if !ok {
			continue
		}
		lat, ok := c.Metrics.ModelLatency[mi]
		if !ok {
			lat = c.Metrics.LatencySec
		}
		if w := d - lat; w < maxWait {
			maxWait = w
		}
	}
	return maxWait
}
