package eval

import (
	"testing"
	"time"

	"geneva/internal/netsim"
	"geneva/internal/obs"
	"geneva/internal/strategies"
)

// withMetrics runs f with the obs gate in the given state and restores the
// previous state (and zeroed instruments) afterwards, so these tests leave
// no trace for the rest of the package.
func withMetrics(t *testing.T, on bool, f func()) {
	t.Helper()
	prev := obs.Enabled()
	obs.SetEnabled(on)
	obs.Reset()
	defer func() {
		obs.Reset()
		obs.SetEnabled(prev)
	}()
	f()
}

// TestMetricsNeutralEvolve is the observability determinism regression: the
// genetic search must produce the bit-identical Result with metrics enabled
// and disabled. Counters observe and never steer — no code path may branch
// on one — and this is the test that keeps it true.
func TestMetricsNeutralEvolve(t *testing.T) {
	opt := EvolveOptions{
		Country:       CountryChina,
		Protocol:      "http",
		Population:    12,
		Generations:   2,
		TrialsPerEval: 2,
		Seed:          11,
	}
	var off, on string
	withMetrics(t, false, func() { off = resultKey(t, opt.Country, opt.Protocol, opt) })
	withMetrics(t, true, func() { on = resultKey(t, opt.Country, opt.Protocol, opt) })
	if on != off {
		t.Errorf("evolve diverged with metrics enabled\n on  %s\n off %s", on, off)
	}
}

// TestMetricsNeutralImpairedRate covers the layers evolve doesn't: with
// impairments active (so the netsim draws, retransmission timers, and censor
// resync paths all run), the measured success rate must be identical with
// metrics on and off.
func TestMetricsNeutralImpairedRate(t *testing.T) {
	cfg := Config{
		Country:  CountryChina,
		Session:  SessionFor(CountryChina, "http", true),
		Strategy: strategies.Strategy1.Parse(),
		Tries:    TriesFor("http"),
		Seed:     101,
		Impairments: netsim.Profile{
			Loss: 0.05, Duplicate: 0.02, Reorder: 0.02, Jitter: 2 * time.Millisecond,
		},
	}
	var off, on float64
	withMetrics(t, false, func() { off = Rate(cfg, 20) })
	withMetrics(t, true, func() { on = Rate(cfg, 20) })
	if on != off {
		t.Errorf("impaired Rate diverged with metrics enabled: on %v, off %v", on, off)
	}
}

// TestMetricsWorkerWidthInvariance pins the counters themselves: totals are
// sums of per-trial events whose randomness is purely seed-derived, so an
// enabled run must produce the identical snapshot at any worker width.
func TestMetricsWorkerWidthInvariance(t *testing.T) {
	cfg := Config{
		Country:     CountryChina,
		Session:     SessionFor(CountryChina, "http", true),
		Tries:       TriesFor("http"),
		Seed:        7,
		Impairments: netsim.Profile{Loss: 0.05},
	}
	snap := func(workers int) obs.Snapshot {
		c := cfg
		c.Workers = workers // per-call width; no process-global state
		obs.Reset()
		Rate(c, 16)
		return obs.Take()
	}
	withMetrics(t, true, func() {
		want := snap(1)
		if want.Counters["eval.trials"] != 16 {
			t.Fatalf("eval.trials = %d, want 16", want.Counters["eval.trials"])
		}
		if want.Counters["netsim.delivered"] == 0 || want.Counters["tcpstack.segments_sent"] == 0 {
			t.Fatalf("expected nonzero netsim/tcpstack counters, got %+v", want.Counters)
		}
		for _, w := range []int{2, 8} {
			got := snap(w)
			for name, v := range want.Counters {
				if got.Counters[name] != v {
					t.Errorf("workers=%d: counter %s = %d, want %d", w, name, got.Counters[name], v)
				}
			}
		}
	})
}

// TestMetricsDisabledCountsNothing pins the off state: a full impaired trial
// with the gate closed must leave every instrument at zero.
func TestMetricsDisabledCountsNothing(t *testing.T) {
	withMetrics(t, false, func() {
		Run(Config{
			Country:     CountryChina,
			Session:     SessionFor(CountryChina, "http", true),
			Tries:       TriesFor("http"),
			Seed:        3,
			Impairments: netsim.Profile{Loss: 0.1},
		})
		s := obs.Take()
		for name, v := range s.Counters {
			if v != 0 {
				t.Errorf("disabled counter %s = %d, want 0", name, v)
			}
		}
	})
}
