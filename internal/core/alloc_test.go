package core

import (
	"context"
	"fmt"
	"testing"

	"example.com/scar/internal/costdb"
	"example.com/scar/internal/eval"
	"example.com/scar/internal/maestro"
	"example.com/scar/internal/mcm"
	"example.com/scar/internal/models"
)

// TestScheduleAllocs gates the garbage of a warm search: a serial
// Schedule at paper-default options with a precompiled session, so every
// allocation counted is the search's own. Each bound is about 1.25x the
// count measured when the gate was set (2,719 for scenario 1, 2,003 for
// scenario 6, under the EDP objective); materializing every SEG
// candidate or copying a segment per DFS step, as the search once did
// (15,037 and 7,697), fails it.
func TestScheduleAllocs(t *testing.T) {
	db := costdb.New(maestro.DefaultParams())
	for _, c := range []struct {
		scenario int
		spec     maestro.Chiplet
		bound    float64
	}{
		{1, maestro.DefaultDatacenterChiplet(), 3400},
		{6, maestro.DefaultEdgeChiplet(), 2500},
	} {
		t.Run(fmt.Sprintf("sc%d", c.scenario), func(t *testing.T) {
			sc, err := models.ScenarioByNumber(c.scenario)
			if err != nil {
				t.Fatal(err)
			}
			pkg := mcm.HetSides(3, 3, c.spec)
			opts := DefaultOptions()
			opts.Workers = 1
			s := New(db, opts)
			req := NewRequest(&sc, pkg, EDPObjective())
			req.Compiled = eval.Compile(db, pkg, &sc, opts.Eval)
			schedule := func() {
				if _, err := s.Schedule(context.Background(), req); err != nil {
					t.Fatal(err)
				}
			}
			schedule() // warm the cost database
			if got := testing.AllocsPerRun(3, schedule); got > c.bound {
				t.Errorf("%.0f allocations per warm Schedule, want at most %.0f", got, c.bound)
			}
		})
	}
}
