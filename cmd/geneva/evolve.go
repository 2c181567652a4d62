package main

import (
	"flag"
	"fmt"
	"io"
	"strconv"

	"geneva/internal/eval"
	"geneva/internal/genetic"
	"geneva/internal/obs"
)

// evolveCmd runs Geneva's genetic search server-side against a
// simulated censor, as §4.1 of the paper runs it against real ones.
//
//	geneva evolve [-country china] [-protocol http] [-population 300]
//	              [-generations 50] [-trials 10] [-seed 0] [-workers 0]
//	              [-minimize=true] [-metrics] [-manifest out.json]
//	              [-cpuprofile cpu.prof] [-memprofile mem.prof]
//
// It prints per-generation statistics, the evaluation engine's cache stats,
// and the best strategy found, then confirms the winner with fresh seeds.
// -workers bounds the population-evaluation pool (0 = one per CPU); the
// result is bit-identical at any width.
//
// -metrics enables the cross-layer counters (internal/obs) and prints the
// nonzero ones after the run; -manifest additionally writes the structured
// run manifest (config, seed schedule, every counter) as diffable JSON.
// Counters observe and never steer, so the evolved strategy is bit-identical
// with and without them.
func evolveCmd(fs *flag.FlagSet) func(io.Reader, io.Writer) error {
	country := fs.String("country", "china", "china, india, iran, or kazakhstan")
	protocol := fs.String("protocol", "http", "dns, ftp, http, https, or smtp")
	population := fs.Int("population", 300, "population size (paper: 300)")
	generations := fs.Int("generations", 50, "generation budget (paper: 50)")
	trials := fs.Int("trials", 10, "fitness trials per individual")
	seed := fs.Int64("seed", 0, "RNG seed")
	minimize := fs.Bool("minimize", true, "prune the winner while fitness holds")
	workers := fs.Int("workers", 0, "population-evaluation workers (0 = one per CPU); any width gives the same result")
	diag := registerDiag(fs, "write a structured run manifest (JSON) to this file; implies -metrics")
	return func(_ io.Reader, w io.Writer) error {
		if err := eval.CheckCountryProtocol(*country, *protocol); err != nil {
			return usageError{err}
		}
		if err := diag.start(); err != nil {
			return err
		}

		fmt.Fprintf(w, "Evolving server-side strategies against %s / %s (population %d, <= %d generations, %d trials/individual)\n\n",
			*country, *protocol, *population, *generations, *trials)

		res, stats, err := eval.EvolveWithStats(eval.EvolveOptions{
			Country:       *country,
			Protocol:      *protocol,
			Population:    *population,
			Generations:   *generations,
			TrialsPerEval: *trials,
			Seed:          *seed,
			Workers:       *workers,
		})
		if err != nil {
			return usageError{err} // EvolveWithStats only fails on its options
		}
		for _, g := range res.History {
			fmt.Fprintf(w, "gen %2d: best %.2f  mean %.2f  distinct %3d  %s\n",
				g.Generation, g.Best, g.Mean, g.Distinct, g.BestDSL)
		}
		fmt.Fprintf(w, "\n%s\n", stats)

		best := res.Best.Strategy
		fmt.Fprintf(w, "\nBest strategy: %s\n", best.String())
		if *minimize {
			fitness := eval.FitnessFor(*country, *protocol, *trials*2, *seed+50000)
			pruned, fit := genetic.Minimize(best, fitness, 0.05)
			if pruned.Size() < best.Size() {
				fmt.Fprintf(w, "Minimized:     %s (fitness %.2f, %d -> %d nodes)\n",
					pruned.String(), fit, best.Size(), pruned.Size())
				best = pruned
			}
		}
		confirm := eval.FitnessFor(*country, *protocol, 200, *seed+100000)(best)
		fmt.Fprintf(w, "Confirmed success rate over 200 fresh trials: %.0f%%\n", 100*confirm)
		cfg := map[string]string{
			"country":     *country,
			"protocol":    *protocol,
			"population":  strconv.Itoa(*population),
			"generations": strconv.Itoa(*generations),
			"trials":      strconv.Itoa(*trials),
			"workers":     strconv.Itoa(*workers),
			"minimize":    strconv.FormatBool(*minimize),
			"best":        best.String(),
		}
		return diag.finish(w, obs.NewManifest("evolve", cfg, obs.DefaultSeedSchedule(*seed)))
	}
}
