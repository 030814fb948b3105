package online

import (
	"context"
	"fmt"
	"math"
	"math/rand"
)

// Arrivals generates the deterministic arrival-time sequence of one
// request class. Implementations must return ascending times and must be
// reproducible: the same receiver value always yields the same sequence,
// regardless of how many goroutines run simulations concurrently (the
// PR 1 determinism convention — generators own seeded private RNGs and
// never share mutable state).
type Arrivals interface {
	// Times returns the arrival times in seconds, ascending, bounded by
	// the horizon (exclusive, when > 0) and by max entries (when > 0).
	// At least one of the two bounds is guaranteed positive by the
	// simulator's config validation. Generators whose length the caller
	// controls poll ctx and return an error wrapping ctx.Err() once it
	// is cancelled.
	Times(ctx context.Context, horizonSec float64, max int) ([]float64, error)
}

// pollEvery is how many draws a generator makes between ctx polls:
// cheap against a draw, prompt against any realistic stream.
const pollEvery = 1024

// cancelled reports ctx's error, wrapped, on every pollEvery-th draw
// (the first included) and nil otherwise.
func cancelled(ctx context.Context, draws int) error {
	if draws%pollEvery != 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("online: arrival generation cancelled after %d arrivals: %w", draws, err)
	}
	return nil
}

// Poisson is a seeded Poisson arrival process: exponential inter-arrival
// times at RatePerSec requests per second.
type Poisson struct {
	// RatePerSec is the mean arrival rate lambda.
	RatePerSec float64
	// Seed drives the process's private RNG.
	Seed int64
}

// Times draws the arrival sequence. A fixed (RatePerSec, Seed) pair
// always produces the identical sequence. Bounded by max alone, the
// sequence has exactly max entries, so it is allocated once.
func (p Poisson) Times(ctx context.Context, horizonSec float64, max int) ([]float64, error) {
	if p.RatePerSec <= 0 {
		return nil, nil
	}
	if horizonSec <= 0 && max <= 0 {
		// No bound at all would loop forever; match Periodic's guard.
		return nil, nil
	}
	rng := rand.New(rand.NewSource(p.Seed))
	var out []float64
	if horizonSec <= 0 {
		out = make([]float64, 0, max)
	}
	t := 0.0
	for max <= 0 || len(out) < max {
		if err := cancelled(ctx, len(out)); err != nil {
			return nil, err
		}
		t += rng.ExpFloat64() / p.RatePerSec
		if horizonSec > 0 && t >= horizonSec {
			break
		}
		out = append(out, t)
	}
	return out, nil
}

// Trace replays an explicit arrival-time list (trace-driven load), e.g.
// timestamps captured from a production frontend.
type Trace struct {
	// TimesSec are the arrival times in seconds, ascending.
	TimesSec []float64
}

// NewTrace builds a trace process, rejecting non-ascending timestamps
// up front — at construction, before any scheduling or simulation work
// runs on the bad input. A Trace built as a plain literal is checked by
// the simulator's config validation instead (see Validate).
func NewTrace(timesSec []float64) (Trace, error) {
	tr := Trace{TimesSec: timesSec}
	return tr, tr.Validate()
}

// Validate reports the first ordering violation of the trace. The
// simulator calls it during config validation, so a descending trace
// fails before arrival generation. Non-finite timestamps are rejected
// explicitly: a NaN compares false against everything, so it would
// slip through the ascending check and then poison the simulator's
// event clock.
func (tr Trace) Validate() error {
	for i, t := range tr.TimesSec {
		if math.IsNaN(t) || math.IsInf(t, 0) {
			return fmt.Errorf("online: trace time at index %d is not finite (%v)", i, t)
		}
		if i > 0 && t < tr.TimesSec[i-1] {
			return fmt.Errorf("online: trace times not ascending at index %d (%v after %v)",
				i, t, tr.TimesSec[i-1])
		}
	}
	return nil
}

// Times returns the trace clipped to the horizon and entry bounds. The
// trace's own length bounds the work, so ctx is not polled.
func (tr Trace) Times(_ context.Context, horizonSec float64, max int) ([]float64, error) {
	out := make([]float64, 0, len(tr.TimesSec))
	for _, t := range tr.TimesSec {
		if horizonSec > 0 && t >= horizonSec {
			break
		}
		if max > 0 && len(out) >= max {
			break
		}
		out = append(out, t)
	}
	return out, nil
}

// Periodic emits one request every PeriodSec starting at OffsetSec — the
// XRBench frame-clock pattern (a scenario epoch per second is Periodic
// with PeriodSec 1).
type Periodic struct {
	PeriodSec float64
	OffsetSec float64
}

// Times returns the periodic sequence within the bounds.
func (p Periodic) Times(ctx context.Context, horizonSec float64, max int) ([]float64, error) {
	if p.PeriodSec <= 0 {
		return nil, nil
	}
	if horizonSec <= 0 && max <= 0 {
		// No bound at all would loop forever; return nothing, matching
		// Poisson's unbounded guard.
		return nil, nil
	}
	var out []float64
	for i := 0; ; i++ {
		if err := cancelled(ctx, i); err != nil {
			return nil, err
		}
		t := p.OffsetSec + float64(i)*p.PeriodSec
		if horizonSec > 0 && t >= horizonSec {
			break
		}
		if max > 0 && len(out) >= max {
			break
		}
		out = append(out, t)
	}
	return out, nil
}
