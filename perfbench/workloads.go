package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"geneva"
	"geneva/internal/eval"
	"geneva/internal/genetic"
	"geneva/internal/obs"
)

// Workload names, in the order the benchmark documents them.
var workloadNames = []string{"fleet-oneshot", "fleet-sessions", "evolve"}

// fleetProtocols is the protocol mix of both fleet workloads.
var fleetProtocols = []string{"http", "https", "dns"}

// evolveProtocols are the five application protocols the §4 search trains
// against, in the order one evolve run visits them.
var evolveProtocols = []string{"dns", "ftp", "http", "https", "smtp"}

const (
	// oneshotConnections sizes fleet-oneshot: the committed 10^5 rung.
	oneshotConnections = 100_000
	// sessionConnections sizes fleet-sessions: each connection carries
	// three exchanges plus reconnects, so 4·10^4 costs about as much host
	// time as the one-shot rung.
	sessionConnections = 40_000
	cellClients        = 16
	cellWaves          = 32

	// evolvePopulation is the paper's population size.
	evolvePopulation = 300
	// evolveGenerations stays below the GA's default early-stop window
	// (8 unchanged generations), so every evolution runs exactly this many
	// generations and the work per run does not swing with the seed.
	evolveGenerations = 4
	// evolveTrials is the fitness sample size per computed strategy.
	evolveTrials = 5
	// evolveReplicas is how many GA seeds each protocol is trained with in
	// one run; averaging over them keeps the computed-evaluation count, and
	// so the run time, steady from one workload seed to the next.
	evolveReplicas = 3
)

// inputs is one workload's generated input: exactly what the program
// receives. Only one of the two halves is set.
type inputs struct {
	fleet  geneva.Deployment
	evolve []geneva.EvolveOptions
}

// censoredCountries is every registered censor, without NoCensor.
func censoredCountries() []string {
	var out []string
	for _, c := range geneva.Countries() {
		if c != geneva.NoCensor {
			out = append(out, c)
		}
	}
	return out
}

// buildInputs generates a workload's inputs from its seed and validates
// them. Its cost is part of setup_s.
func buildInputs(workload string, seed int64, workers int) (inputs, error) {
	var in inputs
	switch workload {
	case "fleet-oneshot", "fleet-sessions":
		d := geneva.Deployment{
			Countries:      censoredCountries(),
			Protocols:      fleetProtocols,
			Connections:    oneshotConnections,
			ClientsPerCell: cellClients,
			WavesPerCell:   cellWaves,
			Seed:           seed,
			Workers:        workers,
		}
		if workload == "fleet-sessions" {
			p, err := geneva.NewPortfolio(geneva.Strategy1.DSL, geneva.Strategy2.DSL, geneva.Strategy11.DSL)
			if err != nil {
				return in, err
			}
			d.Connections = sessionConnections
			d.SessionRequests = 3
			d.RequestGap = 40 * time.Second
			d.Reconnect = geneva.ReconnectPolicy{MaxAttempts: 3, Backoff: 50 * time.Second, RetryAll: true}
			// A negative gap lets residual windows cross waves, so the
			// barrier ledger stays live.
			d.WaveGap = -time.Second
			d.Portfolio = p
			d.Selection = geneva.Selection{Policy: geneva.EpsilonGreedy}
			d.Shift = geneva.CensorShift{AtWave: cellWaves / 2, Country: geneva.China, Params: map[string]float64{"prst": 0}}
		}
		for _, c := range d.Countries {
			for _, p := range d.Protocols {
				if err := eval.CheckCountryProtocol(c, p); err != nil {
					return in, err
				}
			}
		}
		in.fleet = d
	case "evolve":
		rng := rand.New(rand.NewSource(seed))
		for _, p := range evolveProtocols {
			if err := eval.CheckCountryProtocol(geneva.China, p); err != nil {
				return in, err
			}
			for r := 0; r < evolveReplicas; r++ {
				in.evolve = append(in.evolve, geneva.EvolveOptions{
					Country:       geneva.China,
					Protocol:      p,
					Population:    evolvePopulation,
					Generations:   evolveGenerations,
					TrialsPerEval: evolveTrials,
					Seed:          rng.Int63(),
					Workers:       workers,
				})
			}
		}
	default:
		return in, fmt.Errorf("unknown workload %q (valid: %q)", workload, workloadNames)
	}
	return in, nil
}

// withLayout returns the inputs re-scheduled at the given worker and shard
// widths. Both are pure scheduling knobs, so the result must not change.
func (in inputs) withLayout(workers, shards int) inputs {
	out := in
	out.fleet.Workers = workers
	out.fleet.Shards = shards
	out.evolve = append([]geneva.EvolveOptions(nil), in.evolve...)
	for i := range out.evolve {
		out.evolve[i].Workers = workers
	}
	return out
}

// outcome is one run's program output, reduced to what the benchmark
// checks and divides by.
type outcome struct {
	// digest is the SHA-256 of the canonical JSON of the result.
	digest string
	// conns is the number of simulated connections: Result.Connections on
	// the fleet, computed evaluations × TrialsPerEval on evolve.
	conns int
	// stats sums the evolve runs' fitness-cache counters.
	stats geneva.EvalStats
	// canonical is the value the digest was taken of (kept for the
	// self-test, which perturbs it).
	canonical any
}

// evolveRecord is the canonical form of one EvolveWithStats call.
type evolveRecord struct {
	Protocol    string             `json:"protocol"`
	Seed        int64              `json:"seed"`
	BestDSL     string             `json:"best_dsl"`
	BestFitness float64            `json:"best_fitness"`
	History     []genetic.GenStats `json:"history"`
	Stats       geneva.EvalStats   `json:"stats"`
}

// canonicalFleet strips the parts of a FleetResult that are not simulation
// output: the obs counters (filled only when collection is enabled, as in
// the traced run) and the toolchain version.
func canonicalFleet(r geneva.FleetResult) geneva.FleetResult {
	r.Manifest.Metrics = obs.Snapshot{}
	r.Manifest.Go = ""
	return r
}

func digestOf(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // every canonical value is plain data
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// runOnce makes the workload's public calls once.
func runOnce(in inputs) (outcome, error) {
	if in.evolve == nil {
		r, err := geneva.RunDeployment(in.fleet)
		if err != nil {
			return outcome{}, err
		}
		c := canonicalFleet(r)
		return outcome{digest: digestOf(c), conns: r.Connections, canonical: c}, nil
	}
	return runEvolve(in, geneva.EvolveWithStats)
}

// evolveFunc is the shape of geneva.EvolveWithStats; the traced run passes
// its instrumented twin.
type evolveFunc func(geneva.EvolveOptions) (geneva.EvolutionResult, geneva.EvalStats, error)

func runEvolve(in inputs, evolve evolveFunc) (outcome, error) {
	var out outcome
	recs := make([]evolveRecord, 0, len(in.evolve))
	for _, opt := range in.evolve {
		res, st, err := evolve(opt)
		if err != nil {
			return outcome{}, fmt.Errorf("evolve %s seed %d: %w", opt.Protocol, opt.Seed, err)
		}
		recs = append(recs, evolveRecord{
			Protocol:    opt.Protocol,
			Seed:        opt.Seed,
			BestDSL:     res.Best.Strategy.String(),
			BestFitness: res.Best.Fitness,
			History:     res.History,
			Stats:       st,
		})
		out.conns += st.Misses * opt.TrialsPerEval
		out.stats.Hits += st.Hits
		out.stats.Misses += st.Misses
		out.stats.Dedups += st.Dedups
		out.stats.Entries += st.Entries
	}
	out.digest = digestOf(recs)
	out.canonical = recs
	return out, nil
}
