package eval

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"geneva/internal/netsim"
	"geneva/internal/obs"
	"geneva/internal/race"
	"geneva/internal/strategies"
)

// traceText renders a trace entry-by-entry — time, direction, note, and the
// full packet — so two traces compare byte-for-byte.
func traceText(tr *netsim.Trace) string {
	var b strings.Builder
	for _, e := range tr.Entries {
		fmt.Fprintf(&b, "%v %v %q %s\n", e.Time, e.Dir, e.Note, e.Pkt.String())
	}
	return b.String()
}

// TestRecyclingBitIdentical is the pooling safety referee: the same trial
// with packet recycling on and off must produce the same outcome, the same
// censor activity, and a byte-identical packet trace. Any divergence means
// a recycled buffer was still referenced somewhere — exactly the bug class
// the pool's ownership contract exists to prevent.
func TestRecyclingBitIdentical(t *testing.T) {
	cases := []struct {
		name     string
		strategy int // 0 = no evasion
		impaired bool
	}{
		{"no-evasion", 0, false},
		{"tcb-teardown", 1, false},
		{"syn-ack-burst", 6, false},
		{"window-reduction", 8, false},
		{"tcb-teardown-lossy", 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < 8; seed++ {
				cfg := Config{
					Country:   CountryChina,
					Session:   SessionFor(CountryChina, "http", true),
					Tries:     TriesFor("http"),
					Seed:      seed,
					WithTrace: true,
				}
				if tc.strategy > 0 {
					s, ok := strategies.ByNumber(tc.strategy)
					if !ok {
						t.Fatalf("no strategy %d", tc.strategy)
					}
					cfg.Strategy = s.Parse()
				}
				if tc.impaired {
					cfg.Impairments = netsim.Profile{
						Loss: 0.05, Duplicate: 0.05, Jitter: 2 * time.Millisecond,
					}
				}

				rigOn := NewRig(cfg) // NewRig enables recycling
				rigOff := NewRig(cfg)
				rigOff.Net.RecyclePackets = false

				appOn := rigOn.Attempt()
				appOff := rigOff.Attempt()

				if appOn.Succeeded() != appOff.Succeeded() ||
					appOn.Established() != appOff.Established() {
					t.Fatalf("seed %d: outcome diverges with recycling: on=(%v,%v) off=(%v,%v)",
						seed, appOn.Succeeded(), appOn.Established(),
						appOff.Succeeded(), appOff.Established())
				}
				if rigOn.CensorEvents() != rigOff.CensorEvents() {
					t.Fatalf("seed %d: censor events diverge: on=%d off=%d",
						seed, rigOn.CensorEvents(), rigOff.CensorEvents())
				}
				on, off := traceText(rigOn.Net.Trace), traceText(rigOff.Net.Trace)
				if on != off {
					t.Fatalf("seed %d: traces diverge with recycling\n--- recycling on ---\n%s--- recycling off ---\n%s",
						seed, on, off)
				}
			}
		})
	}
}

// TestTrialAllocBudget pins the end-to-end per-trial allocation budget.
// The seed PR measured ~151 allocs per China/http trial; the pooled hot
// path runs at ~61. The budget leaves headroom for cross-seed variance but
// fails long before a regression to the unpooled numbers. Both legs, a
// trial through Run and one through RateStats, also pin bytes: each hands
// its generators back to the pool, so neither pays for a seeding table
// (~48 objects, ~7 KB a trial). A fresh math/rand source is 5.4 KB, four of
// them ~21 KB a trial, so a generator leak or an unpooled stream breaks
// the budget. It runs with metrics explicitly disabled: the obs layer's
// zero-cost-when-off guarantee is part of what this tripwire enforces.
func TestTrialAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; budgets are enforced by make alloc-budget")
	}
	if obs.Enabled() {
		t.Fatal("metrics unexpectedly enabled; a prior test leaked obs state")
	}
	// perTrial runs fn once to fill the generator pool, then reports the
	// objects and bytes it allocates per trial over n more calls of trials
	// trials each.
	perTrial := func(n, trials int, fn func()) (allocs, bytes float64) {
		fn()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			fn()
		}
		runtime.ReadMemStats(&after)
		total := float64(n * trials)
		return float64(after.Mallocs-before.Mallocs) / total, float64(after.TotalAlloc-before.TotalAlloc) / total
	}
	const byteBudget = 12 << 10
	s1, _ := strategies.ByNumber(1)
	st := s1.Parse()
	session := SessionFor(CountryChina, "http", true)
	seed := int64(0)
	allocs, bytes := perTrial(50, 1, func() {
		seed++
		Run(Config{
			Country:  CountryChina,
			Session:  session,
			Strategy: st,
			Tries:    1,
			Seed:     seed,
		})
	})
	const budget = 110
	if allocs > budget || bytes > byteBudget {
		t.Errorf("full trial allocates %.0f objects and %.0f B, budget is %d objects (seed baseline was ~151) and %d B",
			allocs, bytes, budget, byteBudget)
	}
	t.Logf("Run trial: %.1f objects, %.0f B", allocs, bytes)

	cfg := TrialConfig(CountryChina, "http", st, 1)
	cfg.Workers = 1
	const trials = 200
	perAllocs, perBytes := perTrial(1, trials, func() { RateStats(cfg, trials) })
	const allocBudget = 55
	if perAllocs > allocBudget || perBytes > byteBudget {
		t.Errorf("RateStats trial allocates %.1f objects and %.0f B, budget is %d objects and %d B",
			perAllocs, perBytes, allocBudget, byteBudget)
	}
	t.Logf("RateStats trial: %.1f objects, %.0f B", perAllocs, perBytes)
}
