// Daemon-side admission control. The schedule cache makes hits and
// deduplicated waits effectively free, so saturation means one thing:
// too many *leader* searches running at once. A bounded semaphore caps
// them; a request that cannot get a slot within the admission wait is
// shed with ErrSaturated (HTTP 429 + Retry-After) — or answered from
// the stale-schedule store marked degraded — instead of queueing
// searches unboundedly. BeginDrain flips the service into its
// shutdown-drain state, where new work is rejected with ErrDraining
// (HTTP 503) while in-flight requests finish.

package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"example.com/scar/internal/core"
	"example.com/scar/internal/mcm"
	"example.com/scar/internal/workload"
)

// ErrSaturated reports that the concurrent-search limit was reached and
// no slot freed within the admission wait; the caller should back off
// and retry (HTTP maps it to 429 with a Retry-After header).
var ErrSaturated = errors.New("serve: saturated: concurrent search limit reached")

// ErrDraining reports that the service is shutting down and admits no
// new work (HTTP maps it to 503).
var ErrDraining = errors.New("serve: draining: service is shutting down")

// DefaultAdmissionWait bounds how long an admitted request may wait for
// a search slot before being shed, when Config.AdmissionWait is unset.
const DefaultAdmissionWait = 250 * time.Millisecond

// FailPoints is deterministic fault injection for tests: hooks the
// serve layer calls at fixed points so chaos tests can saturate, delay
// or fail the daemon on demand instead of racing against real search
// durations. Production configs leave it nil.
type FailPoints struct {
	// BeforeSearch runs on the leader path after the search slot is
	// acquired and before the search starts. Blocking here holds the
	// slot (saturation chaos); returning an error fails the search
	// without running it. ctx is the request's resolution context.
	BeforeSearch func(ctx context.Context, key string) error
}

// acquireSearchSlot admits one leader search under the concurrency
// limit: immediate acquisition when a slot is free, otherwise a bounded
// wait. Returns the release func, or ErrSaturated when the wait
// expires (ctx errors surface as themselves, so a client that gave up
// first reports cancellation, not saturation).
func (s *Service) acquireSearchSlot(ctx context.Context) (func(), error) {
	if s.searchSem == nil {
		return func() {}, nil
	}
	release := func() { <-s.searchSem }
	select {
	case s.searchSem <- struct{}{}:
		return release, nil
	default:
	}
	if s.admissionWait <= 0 {
		return nil, fmt.Errorf("%w (limit %d, no admission wait)", ErrSaturated, cap(s.searchSem))
	}
	timer := time.NewTimer(s.admissionWait)
	defer timer.Stop()
	select {
	case s.searchSem <- struct{}{}:
		return release, nil
	case <-timer.C:
		return nil, fmt.Errorf("%w (limit %d, waited %v)", ErrSaturated, cap(s.searchSem), s.admissionWait)
	case <-ctx.Done():
		return nil, fmt.Errorf("serve: request abandoned while awaiting a search slot: %w", ctx.Err())
	}
}

// BeginDrain moves the service into its shutdown-drain state: every
// subsequent Schedule/Simulate call is rejected with ErrDraining while
// requests already in flight run to completion. Idempotent; there is no
// way back — draining is the daemon's last state before exit.
func (s *Service) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain was called.
func (s *Service) Draining() bool { return s.draining.Load() }

// checkAdmission is the shared front door of Schedule and Simulate.
func (s *Service) checkAdmission() error {
	if s.draining.Load() {
		s.drainRejects.Inc()
		return ErrDraining
	}
	return nil
}

// staleEntry is one remembered schedule answer for degraded serving.
type staleEntry struct {
	sc  workload.Scenario
	pkg *mcm.MCM
	res *core.Result
}

// staleStore remembers the most recent search answer per key — full or
// partial, including entries the LRU has since evicted — as the source
// for degraded answers when the service is saturated. It is consulted
// only on the shed path and written once per completed search, so a
// single mutex is fine; eviction is FIFO by first insertion, which is
// enough for a best-effort stale store.
type staleStore struct {
	mu    sync.Mutex
	max   int
	m     map[string]staleEntry
	order []string
}

func newStaleStore(max int) *staleStore {
	return &staleStore{max: max, m: make(map[string]staleEntry)}
}

func (st *staleStore) put(key string, e staleEntry) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.m[key]; !ok {
		for len(st.order) >= st.max {
			delete(st.m, st.order[0])
			st.order = st.order[1:]
		}
		st.order = append(st.order, key)
	}
	st.m[key] = e
}

func (st *staleStore) get(key string) (staleEntry, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.m[key]
	return e, ok
}

func (st *staleStore) size() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.m)
}
