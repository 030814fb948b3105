package core

import (
	"context"
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
// (15,037 and 7,697), fails it. The evolutionary row is the 6x6 search
// at Heuristic 2's node cap (1,758 when set); decoding every genome into
// fresh slices, as the GA once did (8,256), fails it.
func TestScheduleAllocs(t *testing.T) {
	db := costdb.New(maestro.DefaultParams())
	for _, c := range []struct {
		name     string
		scenario int
		pkg      *mcm.MCM
		evo      bool
		bound    float64
	}{
		{"sc1", 1, mcm.HetSides(3, 3, maestro.DefaultDatacenterChiplet()), false, 3400},
		{"sc6", 6, mcm.HetSides(3, 3, maestro.DefaultEdgeChiplet()), false, 2500},
		{"sc6-evo-6x6", 6, mcm.HetCross(maestro.DefaultEdgeChiplet()), true, 2200},
	} {
		t.Run(c.name, func(t *testing.T) {
			sc, err := models.ScenarioByNumber(c.scenario)
			if err != nil {
				t.Fatal(err)
			}
			pkg := c.pkg
			opts := DefaultOptions()
			opts.Workers = 1
			if c.evo {
				opts.Search = SearchEvolutionary
				opts.NodeAllocCap = 6
			}
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
