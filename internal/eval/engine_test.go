package eval

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"geneva/internal/core"
	"geneva/internal/genetic"
)

// resultKey runs Evolve and flattens its Result (see resultText).
func resultKey(t *testing.T, country, proto string, opt EvolveOptions) string {
	t.Helper()
	res, err := Evolve(opt)
	if err != nil {
		t.Fatal(err)
	}
	return resultText(t, country, proto, res)
}

// resultText flattens the fields of a genetic.Result that define a training
// outcome: best strategy text, best fitness, and the full per-generation
// history (which pins generation count, means, and distinct counts too).
func resultText(t *testing.T, country, proto string, res genetic.Result) string {
	t.Helper()
	if res.Best.Strategy == nil {
		t.Fatalf("%s/%s: no best strategy", country, proto)
	}
	return fmt.Sprintf("best=%s fitness=%v gens=%d history=%+v",
		res.Best.Strategy.String(), res.Best.Fitness, len(res.History), res.History)
}

// serialFitness is the reference the evaluation engine is held to: every
// strategy of every batch measured afresh, one at a time, through
// FitnessFor — no cache, no in-batch dedup, no population pool.
func serialFitness(opt EvolveOptions) func([]*core.Strategy) []float64 {
	fitness := FitnessFor(opt.Country, opt.Protocol, opt.TrialsPerEval, opt.Seed)
	return func(batch []*core.Strategy) []float64 {
		out := make([]float64, len(batch))
		for i, s := range batch {
			out[i] = fitness(s)
		}
		return out
	}
}

// TestEvolveBatchMatchesSequentialSeedPath is the GA determinism
// regression: the parallel+cached engine, at GOMAXPROCS 1, 2, and 8, must
// produce the exact Result that the same GA configuration produces when
// scored by the uncached serial reference, for {china, kazakhstan} x
// {http, ftp}. Fitness is a pure function of (canonical strategy, seed
// base), so any divergence means the engine leaked scheduling order or
// cache state into the trajectory.
func TestEvolveBatchMatchesSequentialSeedPath(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, country := range []string{CountryChina, CountryKazakhstan} {
		for _, proto := range []string{"http", "ftp"} {
			opt := EvolveOptions{
				Country:       country,
				Protocol:      proto,
				Population:    16,
				Generations:   3,
				TrialsPerEval: 2,
				Seed:          5,
			}
			runtime.GOMAXPROCS(1)
			ref := gaConfig(opt)
			ref.BatchFitness = serialFitness(opt)
			want := resultText(t, country, proto, genetic.Evolve(ref))
			for _, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				if got := resultKey(t, country, proto, opt); got != want {
					t.Errorf("%s/%s GOMAXPROCS=%d: batch engine diverged from the serial reference\n got %s\nwant %s",
						country, proto, procs, got, want)
				}
			}
		}
	}
}

// TestEvaluatorWorkerWidthInvariance pins the pool directly: explicit
// Workers values (not GOMAXPROCS) must not change a batch's scores.
func TestEvaluatorWorkerWidthInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	batch := make([]*core.Strategy, 12)
	for i := range batch {
		batch[i] = randomEvolvable(rng)
	}
	base := NewEvaluator(CountryKazakhstan, "http", 2, 9)
	base.Workers = 1
	want := base.BatchFitness(batch)
	for _, w := range []int{2, 3, 8} {
		ev := NewEvaluator(CountryKazakhstan, "http", 2, 9)
		ev.Workers = w
		if got := ev.BatchFitness(batch); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: scores %v != workers=1 scores %v", w, got, want)
		}
	}
}

// TestFitnessCacheProperty is the cache property test: for randomly
// generated GA-shaped strategies, cached fitness agrees exactly with the
// serial reference, repeat calls are pure hits, and canonical duplicates
// share one cache entry.
func TestFitnessCacheProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var batch []*core.Strategy
	for i := 0; i < 20; i++ {
		batch = append(batch, randomEvolvable(rng))
	}
	// Clones of batch members: same canonical text, distinct pointers.
	batch = append(batch, batch[0].Clone(), batch[7].Clone(), batch[7].Clone())

	distinct := make(map[string]bool)
	for _, s := range batch {
		distinct[s.String()] = true
	}

	cached := NewEvaluator(CountryKazakhstan, "http", 2, 5)
	a := cached.BatchFitness(batch)
	if b := serialFitness(EvolveOptions{Country: CountryKazakhstan, Protocol: "http", TrialsPerEval: 2, Seed: 5})(batch); !reflect.DeepEqual(a, b) {
		t.Fatalf("cached scores %v != serial reference scores %v", a, b)
	}

	st := cached.Stats()
	if st.Entries != len(distinct) {
		t.Errorf("cache holds %d entries for %d distinct canonical strategies", st.Entries, len(distinct))
	}
	if st.Misses != len(distinct) {
		t.Errorf("%d computations for %d distinct strategies", st.Misses, len(distinct))
	}
	if st.Dedups != len(batch)-len(distinct) {
		t.Errorf("in-batch dedups = %d, want %d", st.Dedups, len(batch)-len(distinct))
	}

	// Re-scoring the whole batch must be answered entirely from the cache,
	// whether as one batch or one strategy at a time.
	misses := st.Misses
	a2 := cached.BatchFitness(batch)
	if !reflect.DeepEqual(a2, a) {
		t.Fatalf("re-scored batch %v != first scores %v", a2, a)
	}
	st2 := cached.Stats()
	if st2.Misses != misses {
		t.Errorf("re-scoring computed %d fresh evaluations", st2.Misses-misses)
	}
	if st2.Hits != st.Hits+len(batch) {
		t.Errorf("re-scoring produced %d hits, want %d", st2.Hits-st.Hits, len(batch))
	}
	for i, s := range batch {
		if f := cached.BatchFitness([]*core.Strategy{s})[0]; f != a[i] {
			t.Errorf("strategy %d (%s): single fitness %v != batch fitness %v", i, s, f, a[i])
		}
	}
	if st3 := cached.Stats(); st3.Misses != misses {
		t.Errorf("single-strategy re-scoring computed %d fresh evaluations", st3.Misses-misses)
	}
}

// TestFitnessCacheSharedEntryForEqualCanonicalStrings pins the cache-key
// claim in isolation: two strategies with equal String() occupy exactly one
// entry, and the second evaluation is a hit.
func TestFitnessCacheSharedEntryForEqualCanonicalStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	s := randomEvolvable(rng)
	clone := s.Clone()
	if s.String() != clone.String() {
		t.Fatalf("clone changed canonical text: %q vs %q", s, clone)
	}
	ev := NewEvaluator(CountryKazakhstan, "http", 2, 7)
	f1 := ev.BatchFitness([]*core.Strategy{s})[0]
	f2 := ev.BatchFitness([]*core.Strategy{clone})[0]
	if f1 != f2 {
		t.Errorf("canonical twins scored differently: %v vs %v", f1, f2)
	}
	st := ev.Stats()
	if st.Entries != 1 || st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats after twin evaluation: %+v, want 1 entry, 1 miss, 1 hit", st)
	}
}

// TestEvalStatsString keeps the commands' stats line well-formed.
func TestEvalStatsString(t *testing.T) {
	s := EvalStats{Hits: 6, Misses: 3, Dedups: 1, Entries: 3}
	if s.Lookups() != 10 {
		t.Errorf("Lookups() = %d, want 10", s.Lookups())
	}
	if got := s.HitRate(); got != 0.7 {
		t.Errorf("HitRate() = %v, want 0.7", got)
	}
	want := "fitness cache: 10 lookups, 6 hits, 1 in-batch dedups, 3 computed (70% avoided), 3 entries"
	if s.String() != want {
		t.Errorf("String() = %q, want %q", s.String(), want)
	}
	if (EvalStats{}).HitRate() != 0 {
		t.Error("zero stats must report hit rate 0")
	}
}

// TestNewCensorReturnsExportedCounter locks in the trial.go lint fix: the
// constructor's return type is the exported CensorCounter interface.
func TestNewCensorReturnsExportedCounter(t *testing.T) {
	var c CensorCounter = NewCensor(CountryChina, rand.New(rand.NewSource(1)))
	if c == nil || c.CensoredCount() != 0 {
		t.Fatal("fresh censor must start with zero events")
	}
	if NewCensor(CountryNone, rand.New(rand.NewSource(1))) != nil {
		t.Fatal("CountryNone must yield a nil censor")
	}
}
