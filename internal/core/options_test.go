package core

import (
	"context"
	"strings"
	"testing"

	"example.com/scar/internal/costdb"
	"example.com/scar/internal/maestro"
	"example.com/scar/internal/mcm"
)

// TestOptionsValidate: a search budget the search cannot run with is an
// error naming the option, from both entry points, never a panic. Four
// workers put the search on pool goroutines, where a panic would kill the
// process. The smallest valid budgets still schedule.
func TestOptionsValidate(t *testing.T) {
	db := costdb.New(maestro.DefaultParams())
	pkg := mcm.HetCB(3, 3, maestro.DefaultDatacenterChiplet())
	sc := smallScenario()
	cases := []struct {
		name string
		set  func(o *Options)
		// want is the option the error must name; empty means valid.
		want string
	}{
		{"topk-negative", func(o *Options) { o.TopKSeg = -1 }, "TopKSeg"},
		{"topk-zero", func(o *Options) { o.TopKSeg = 0 }, "TopKSeg"},
		{"combos-negative", func(o *Options) { o.MaxCombos = -1 }, "MaxCombos"},
		{"combos-zero", func(o *Options) { o.MaxCombos = 0 }, "MaxCombos"},
		{"trees-negative", func(o *Options) { o.MaxTrees = -3 }, "MaxTrees"},
		{"smallest-valid", func(o *Options) { o.TopKSeg, o.MaxCombos, o.MaxTrees = 1, 1, 0 }, ""},
	}
	entries := []struct {
		name string
		run  func(s *Scheduler, req *Request) (*Result, error)
	}{
		{"schedule", func(s *Scheduler, req *Request) (*Result, error) {
			return s.Schedule(context.Background(), req)
		}},
		{"uniform", func(s *Scheduler, req *Request) (*Result, error) {
			return s.ScheduleUniformPacking(context.Background(), req)
		}},
	}
	for _, c := range cases {
		for _, e := range entries {
			t.Run(c.name+"/"+e.name, func(t *testing.T) {
				opts := FastOptions()
				opts.Workers = 4
				c.set(&opts)
				res, err := e.run(New(db, opts), NewRequest(&sc, pkg, EDPObjective()))
				if c.want == "" {
					if err != nil {
						t.Fatalf("valid options rejected: %v", err)
					}
					if err := res.Schedule.Validate(&sc, pkg); err != nil {
						t.Fatalf("invalid schedule: %v", err)
					}
					return
				}
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Fatalf("err = %v, want one naming %s", err, c.want)
				}
			})
		}
	}
}
