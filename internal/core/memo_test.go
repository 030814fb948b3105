package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"example.com/scar/internal/costdb"
	"example.com/scar/internal/maestro"
	"example.com/scar/internal/mcm"
)

// scheduleCounting runs Schedule's search for req by hand so the test can
// reach the run: memoLeaves forces a leaf cache into every window
// search, and calls is the number of real WindowEval calls the run made.
func scheduleCounting(t *testing.T, s *Scheduler, req *Request, memoLeaves bool) (res *Result, calls int) {
	t.Helper()
	if err := req.validate(); err != nil {
		t.Fatal(err)
	}
	opts := req.apply(s.opts)
	r := s.newRun(context.Background(), req, opts)
	r.memoLeaves = memoLeaves
	res, err := s.searchPartitionings(r, candidatePartitionings(r, greedyPacking))
	if err != nil {
		t.Fatal(err)
	}
	for _, ws := range r.workers {
		calls += ws.calls
	}
	return res, calls
}

// TestMemoLeafDistinctness proves that the rule-based tree search needs
// no leaf memo: with one forced into every window search, over random
// scenarios on mesh, triangular and custom-ring packages and under free
// placement, no leaf is ever served from it. At one worker there are no
// races, so a leaf hit would lower both UniqueWindows and the real
// WindowEval calls below their values without the forced memo.
//
// In every search mode it also checks the accounting against reality:
// at one worker UniqueWindows equals the real WindowEval calls, and at
// any worker count the Result is the same.
func TestMemoLeafDistinctness(t *testing.T) {
	db := costdb.New(maestro.DefaultParams())
	spec := maestro.DefaultDatacenterChiplet()
	ring, err := goldenRing(spec)
	if err != nil {
		t.Fatal(err)
	}
	pkgs := []*mcm.MCM{
		mcm.HetCB(3, 3, spec),
		mcm.HetSides(6, 6, spec),
		mcm.HetT(3, 3, spec),
		ring,
	}
	objectives := []Objective{LatencyObjective(), EnergyObjective(), EDPObjective()}
	modes := []struct {
		name string
		set  func(o *Options)
	}{
		{"rule", func(o *Options) {}},
		{"free", func(o *Options) { o.FreePlacement = true }},
		{"exhaustive", func(o *Options) { o.Prov = ProvExhaustive; o.MaxProvOptions = 6 }},
		{"evo", func(o *Options) { o.Search = SearchEvolutionary }},
		{"evo-exhaustive", func(o *Options) { o.Search = SearchEvolutionary; o.Prov = ProvExhaustive; o.MaxProvOptions = 6 }},
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 12; trial++ {
		sc := randomScenario(rng.Int63())
		pkg := pkgs[trial%len(pkgs)]
		obj := objectives[trial%len(objectives)]
		for _, mode := range modes {
			opts := FastOptions()
			opts.Workers = 1
			mode.set(&opts)
			req := NewRequest(&sc, pkg, obj)
			res, calls := scheduleCounting(t, New(db, opts), req, false)
			if res.UniqueWindows != calls {
				t.Errorf("trial %d %s on %s: UniqueWindows %d, real WindowEval calls %d",
					trial, mode.name, pkg.Name, res.UniqueWindows, calls)
			}
			if mode.name == "rule" || mode.name == "free" {
				forced, forcedCalls := scheduleCounting(t, New(db, opts), req, true)
				if forced.UniqueWindows != res.UniqueWindows || forcedCalls != calls {
					t.Errorf("trial %d %s on %s: %d leaf hits with a forced leaf memo",
						trial, mode.name, pkg.Name, calls-forcedCalls)
				}
				if !reflect.DeepEqual(forced, res) {
					t.Errorf("trial %d %s on %s: forced leaf memo changed the result", trial, mode.name, pkg.Name)
				}
			}
			opts.Workers = 4
			parallel, parallelCalls := scheduleCounting(t, New(db, opts), req, false)
			assertResultsIdentical(t, mode.name, res, parallel)
			if parallelCalls < parallel.UniqueWindows {
				t.Errorf("trial %d %s on %s: %d real calls at 4 workers, fewer than %d unique windows",
					trial, mode.name, pkg.Name, parallelCalls, parallel.UniqueWindows)
			}
		}
	}
}

// TestMemoCancelFromProgress cancels golden searches from their first
// Progress event. The result is Partial with UniqueWindows at most
// WindowEvals, and nothing the cancelled run computed leaks into the
// next uncancelled Schedule on the same Scheduler: its digest is the
// golden one.
func TestMemoCancelFromProgress(t *testing.T) {
	db := costdb.New(maestro.DefaultParams())
	for _, name := range []string{"brute/sc1/het-sides/edp", "evo-prov-exhaustive/sc6/het-sides/edp"} {
		c := goldenCaseNamed(t, name)
		for _, workers := range []int{1, 4} {
			req, opts := c.request(t)
			opts.Workers = workers
			s := New(db, opts)
			ctx, cancel := context.WithCancel(context.Background())
			req.Progress = func(ProgressEvent) { cancel() }
			res, err := c.run(ctx, s, req)
			cancel()
			if err != nil {
				t.Fatalf("%s at %d workers: %v", name, workers, err)
			}
			// More candidates than workers, so at least one is
			// skipped once the first finishes.
			if res.Candidates <= workers {
				t.Fatalf("%s: %d candidates, need more than %d", name, res.Candidates, workers)
			}
			if !res.Partial {
				t.Errorf("%s at %d workers: cancelled run not Partial", name, workers)
			}
			if res.UniqueWindows > res.WindowEvals {
				t.Errorf("%s at %d workers: UniqueWindows %d > WindowEvals %d", name, workers, res.UniqueWindows, res.WindowEvals)
			}

			req.Progress = nil
			full, err := c.run(context.Background(), s, req)
			if err != nil {
				t.Fatal(err)
			}
			if got := goldenDigest(full); full.Partial || got != c.want {
				t.Errorf("%s at %d workers after a cancelled run: digest %s (partial %v), want %s",
					name, workers, got, full.Partial, c.want)
			}
		}
	}
}

// TestMemoSkipsAbortedSearch: a window search cut short by the stop
// check still returns its anytime floor, marks the run truncated, counts
// its leaf evaluations, and is not memoized.
func TestMemoSkipsAbortedSearch(t *testing.T) {
	db := costdb.New(maestro.DefaultParams())
	req, opts := goldenCaseNamed(t, "brute/sc1/het-sides/edp").request(t)
	s := New(db, opts)
	ctx, cancel := context.WithCancel(context.Background())
	r := s.newRun(ctx, req, req.apply(s.opts))
	cancel()
	r.stopped.Store(true)
	w := candidatePartitionings(r, greedyPacking)[0].windows[0]
	segs, err := s.memoWindow(r, 0, w)
	if err != nil || len(segs) == 0 {
		t.Fatalf("aborted search returned no anytime floor: %v", err)
	}
	if !r.truncated.Load() {
		t.Error("aborted search did not mark the run truncated")
	}
	if r.evals.Load() == 0 {
		t.Error("aborted search's leaf evaluations not counted")
	}
	if len(r.memo.m) != 0 || r.unique.Load() != 0 {
		t.Errorf("aborted search memoized: %d entries, %d unique windows", len(r.memo.m), r.unique.Load())
	}
}
