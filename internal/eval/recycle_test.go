package eval

import (
	"fmt"
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
					cfg.Impairments = netsim.Symmetric(netsim.Profile{
						Loss: 0.05, Duplicate: 0.05, Jitter: 2 * time.Millisecond,
					})
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
// fails long before a regression to the unpooled numbers. It runs with
// metrics explicitly disabled: the obs layer's zero-cost-when-off guarantee
// is part of what this tripwire enforces.
func TestTrialAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; budgets are enforced by make alloc-budget")
	}
	if obs.Enabled() {
		t.Fatal("metrics unexpectedly enabled; a prior test leaked obs state")
	}
	s1, _ := strategies.ByNumber(1)
	st := s1.Parse()
	session := SessionFor(CountryChina, "http", true)
	seed := int64(0)
	allocs := testing.AllocsPerRun(50, func() {
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
	if allocs > budget {
		t.Errorf("full trial allocates %.0f objects/op, budget is %d (seed baseline was ~151)",
			allocs, budget)
	}
}
