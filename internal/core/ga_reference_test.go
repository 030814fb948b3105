package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// This file keeps the generic GA engine evolve replaced, as the test-only
// oracle of TestEvolveMatchesReference: at the paper's hyperparameters,
// with every gene's minimum at 0, evolve must draw the same values in the
// same order and return the same result. It runs the GA over integer
// genomes with per-gene bounds.

// refRange bounds one gene: values lie in [Min, Max] inclusive.
type refRange struct {
	Min, Max int
}

func (r refRange) span() int { return r.Max - r.Min + 1 }

// refProblem defines a GA minimization problem over integer genomes.
type refProblem struct {
	// Bounds gives each gene's inclusive range.
	Bounds []refRange
	// Fitness scores a genome; lower is better. Return +Inf for
	// infeasible genomes.
	Fitness func(genes []int) float64
	// Stop, when non-nil, is polled between fitness evaluations: once
	// it reports true the run returns the best genome found so far with
	// refResult.Stopped set (at least one genome is always evaluated
	// first). A nil or never-true Stop leaves the run bit-identical to
	// one without it.
	Stop func() bool
}

// refOptions are the GA hyperparameters. The paper's 6x6 experiment uses
// Population 10 and Generations 4.
type refOptions struct {
	Population  int
	Generations int
	// MutationRate is the per-gene mutation probability.
	MutationRate float64
	// Elite is the number of best genomes carried over unchanged.
	Elite int
	// Seed makes runs reproducible.
	Seed int64
}

// refDefaultOptions mirrors the paper's evolutionary configuration.
func refDefaultOptions() refOptions {
	return refOptions{Population: 10, Generations: 4, MutationRate: 0.15, Elite: 2, Seed: 1}
}

// refResult carries the best genome found and search statistics.
type refResult struct {
	Best        []int
	BestFitness float64
	Evaluations int
	// Stopped marks a run cut short by refProblem.Stop; Best is the
	// incumbent at that point (possibly nil when stopped before any
	// feasible genome appeared).
	Stopped bool
}

// referenceGA executes the GA: seeded random initialization, tournament
// selection, uniform crossover, bounded per-gene mutation, elitism.
func referenceGA(p refProblem, o refOptions) (refResult, error) {
	if len(p.Bounds) == 0 {
		return refResult{}, fmt.Errorf("reference GA: empty genome")
	}
	if p.Fitness == nil {
		return refResult{}, fmt.Errorf("reference GA: nil fitness")
	}
	for i, b := range p.Bounds {
		if b.Max < b.Min {
			return refResult{}, fmt.Errorf("reference GA: gene %d has inverted bounds [%d,%d]", i, b.Min, b.Max)
		}
	}
	if o.Population < 2 {
		o.Population = 2
	}
	if o.Elite >= o.Population {
		o.Elite = o.Population - 1
	}
	rng := rand.New(rand.NewSource(o.Seed))

	type indiv struct {
		genes []int
		fit   float64
	}
	res := refResult{BestFitness: math.Inf(1)}
	score := func(genes []int) float64 {
		res.Evaluations++
		return p.Fitness(genes)
	}
	// stopped is polled between evaluations; the Evaluations guard
	// ensures at least one genome is scored before a stop is honored,
	// so cancelled runs still return a candidate whenever one exists.
	stopped := func() bool {
		return p.Stop != nil && res.Evaluations > 0 && p.Stop()
	}
	note := func(ind indiv) {
		if ind.fit < res.BestFitness {
			res.BestFitness = ind.fit
			res.Best = append([]int(nil), ind.genes...)
		}
	}
	pop := make([]indiv, 0, o.Population)
	for i := 0; i < o.Population; i++ {
		if stopped() {
			res.Stopped = true
			break
		}
		g := make([]int, len(p.Bounds))
		for j, b := range p.Bounds {
			g[j] = b.Min + rng.Intn(b.span())
		}
		ind := indiv{genes: g, fit: score(g)}
		note(ind)
		pop = append(pop, ind)
	}

	tournament := func() indiv {
		a := pop[rng.Intn(len(pop))]
		b := pop[rng.Intn(len(pop))]
		if a.fit <= b.fit {
			return a
		}
		return b
	}
generations:
	for gen := 0; gen < o.Generations && !res.Stopped; gen++ {
		// Elites survive; sort by fitness first.
		sort.SliceStable(pop, func(i, j int) bool { return pop[i].fit < pop[j].fit })
		next := make([]indiv, 0, o.Population)
		for i := 0; i < o.Elite && i < len(pop); i++ {
			next = append(next, pop[i])
		}
		for len(next) < o.Population {
			if stopped() {
				res.Stopped = true
				break generations
			}
			pa, pb := tournament(), tournament()
			child := make([]int, len(p.Bounds))
			for j := range child {
				if rng.Intn(2) == 0 {
					child[j] = pa.genes[j]
				} else {
					child[j] = pb.genes[j]
				}
				if rng.Float64() < o.MutationRate {
					b := p.Bounds[j]
					child[j] = b.Min + rng.Intn(b.span())
				}
			}
			ind := indiv{genes: child, fit: score(child)}
			note(ind)
			next = append(next, ind)
		}
		pop = next
	}
	if res.Best == nil {
		return res, fmt.Errorf("reference GA: no feasible genome found")
	}
	return res, nil
}
