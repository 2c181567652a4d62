// Package genetic implements the evolutionary search Geneva uses to
// discover packet-manipulation strategies (§4.1).
//
// As in the paper's configuration: populations of ~300 individuals evolve
// for up to 50 generations or until convergence; individuals are (trigger,
// action-tree) rules composed from the five genetic building blocks; and —
// the §4.1 server-side optimization — triggers are restricted to SYN+ACK
// packets for the protocols where that is the only packet a server sends
// before a censorship event.
//
// Fitness is supplied by the caller (the experiment harness evaluates a
// strategy with real simulated connections through a censor); this package
// owns only representation, variation, selection, and convergence.
package genetic

import (
	"fmt"
	"math/rand"
	"sort"

	"geneva/internal/core"
	"geneva/internal/lazyrand"
)

// The paper's fixed GA settings (§4.1).
const (
	// parsimony is the per-node fitness penalty (bloat control): prefer
	// smaller strategies at equal success.
	parsimony = 0.003
	// elite individuals survive unchanged each generation.
	elite = 4
	// mutationRate is the per-offspring probability of mutation.
	mutationRate = 0.9
	// crossoverRate is the per-offspring probability of crossover.
	crossoverRate = 0.4
	// maxNodes caps action-tree size (bloat control).
	maxNodes = 12
)

// Config controls one evolution run.
type Config struct {
	// PopulationSize is the number of individuals per generation
	// (paper: 300).
	PopulationSize int
	// Generations is the evolution budget (paper: 50).
	Generations int
	// TriggerValue restricts every rule's trigger to
	// [TCP:flags:<TriggerValue>] (paper: "SA" for DNS/HTTP/HTTPS/SMTP).
	TriggerValue string
	// EvolveTrigger lifts the restriction and lets the trigger itself
	// mutate (the paper does this for FTP, whose servers speak first).
	EvolveTrigger bool
	// BatchFitness scores a whole generation in one call: it must return
	// one raw fitness in [0, 1] (success rate) per strategy, positionally.
	// Fitness must be a pure function of the canonical strategy text
	// (s.String()), so implementations are free to memoize duplicates and
	// evaluate the batch on a worker pool — the evolution trajectory is
	// bit-identical either way. The engine subtracts a small bloat penalty
	// itself.
	BatchFitness func([]*core.Strategy) []float64
	// Rng drives all stochastic choices.
	Rng *rand.Rand
	// ConvergeAfter stops early once the best canonical strategy has not
	// changed for this many generations (0 = the default of 8; negative =
	// never stop early).
	ConvergeAfter int
}

// withDefaults fills unset fields with the paper's configuration.
func (c Config) withDefaults() Config {
	if c.PopulationSize == 0 {
		c.PopulationSize = 300
	}
	if c.Generations == 0 {
		c.Generations = 50
	}
	if c.TriggerValue == "" {
		c.TriggerValue = "SA"
	}
	if c.ConvergeAfter == 0 {
		c.ConvergeAfter = 8
	}
	return c
}

// Individual is one member of the population.
type Individual struct {
	Strategy *core.Strategy
	Fitness  float64
}

// GenStats summarizes one generation for reporting.
type GenStats struct {
	Generation int
	Best       float64
	Mean       float64
	BestDSL    string
	Distinct   int
}

// Result of an evolution run.
type Result struct {
	Best    Individual
	History []GenStats
}

// Evolve runs the genetic algorithm and returns the best individual found.
func Evolve(cfg Config) Result {
	cfg = cfg.withDefaults()
	rng := cfg.Rng
	if rng == nil {
		rng = lazyrand.New(0)
	}

	memo := make(map[string]float64)

	trigger := cfg.TriggerValue
	if cfg.EvolveTrigger {
		trigger = ""
	}
	pop := make([]Individual, cfg.PopulationSize)
	for i := range pop {
		pop[i] = Individual{Strategy: RandomStrategy(rng, trigger)}
	}

	var res Result
	stale := 0
	lastBest := ""
	for gen := 0; gen < cfg.Generations; gen++ {
		score(pop, cfg.BatchFitness, memo)
		sort.SliceStable(pop, func(i, j int) bool { return pop[i].Fitness > pop[j].Fitness })

		stats := summarize(gen, pop)
		res.History = append(res.History, stats)
		if pop[0].Fitness > res.Best.Fitness || res.Best.Strategy == nil {
			res.Best = Individual{Strategy: pop[0].Strategy.Clone(), Fitness: pop[0].Fitness}
		}
		if stats.BestDSL == lastBest {
			stale++
			// Never declare convergence on a fitness-less best: a flat
			// landscape means "keep searching", not "done".
			if cfg.ConvergeAfter > 0 && stale >= cfg.ConvergeAfter && pop[0].Fitness > 0 {
				break
			}
		} else {
			stale = 0
			lastBest = stats.BestDSL
		}

		next := make([]Individual, 0, cfg.PopulationSize)
		for i := 0; i < elite && i < len(pop); i++ {
			next = append(next, Individual{Strategy: pop[i].Strategy.Clone()})
		}
		// Random immigrants (10%): fresh genetic material every
		// generation, so a junk-saturated population can still escape a
		// flat fitness landscape instead of converging prematurely.
		for i := 0; i < cfg.PopulationSize/10; i++ {
			next = append(next, Individual{Strategy: RandomStrategy(rng, trigger)})
		}
		for len(next) < cfg.PopulationSize {
			child := tournament(rng, pop).Strategy.Clone()
			if rng.Float64() < crossoverRate {
				mate := tournament(rng, pop).Strategy
				Crossover(rng, child, mate.Clone())
			}
			if rng.Float64() < mutationRate {
				Mutate(rng, child, trigger)
			}
			if child.Size() > maxNodes {
				child = RandomStrategy(rng, trigger)
			}
			next = append(next, Individual{Strategy: child})
		}
		pop = next
	}
	return res
}

// score fills in every individual's penalized fitness from one BatchFitness
// call over the whole population. memo holds penalized fitness across
// generations, keyed by canonical text: two trees that print identically
// can differ in Size() (elided nodes), and the rule the determinism suite
// pins is that the first occurrence's penalty wins.
func score(pop []Individual, batchFitness func([]*core.Strategy) []float64, memo map[string]float64) {
	batch := make([]*core.Strategy, len(pop))
	for i := range pop {
		batch[i] = pop[i].Strategy
	}
	raw := batchFitness(batch)
	if len(raw) != len(batch) {
		panic(fmt.Sprintf("genetic: BatchFitness returned %d scores for %d strategies",
			len(raw), len(batch)))
	}
	for i := range pop {
		key := pop[i].Strategy.String()
		f, ok := memo[key]
		if !ok {
			// Parsimony pressure: prefer smaller strategies at equal success.
			f = raw[i] - parsimony*float64(pop[i].Strategy.Size())
			memo[key] = f
		}
		pop[i].Fitness = f
	}
}

// tournament picks the fitter of three random individuals.
func tournament(rng *rand.Rand, pop []Individual) Individual {
	best := pop[rng.Intn(len(pop))]
	for i := 0; i < 2; i++ {
		c := pop[rng.Intn(len(pop))]
		if c.Fitness > best.Fitness {
			best = c
		}
	}
	return best
}

func summarize(gen int, pop []Individual) GenStats {
	sum := 0.0
	distinct := make(map[string]bool)
	for _, ind := range pop {
		sum += ind.Fitness
		distinct[ind.Strategy.String()] = true
	}
	return GenStats{
		Generation: gen,
		Best:       pop[0].Fitness,
		Mean:       sum / float64(len(pop)),
		BestDSL:    pop[0].Strategy.String(),
		Distinct:   len(distinct),
	}
}
