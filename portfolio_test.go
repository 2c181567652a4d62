package geneva

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"geneva/internal/obs"
)

// pinnedGolden renders a FleetResult the way the committed goldens were
// generated: indented JSON plus trailing newline, with Manifest.Metrics
// cleared (the counter key-set depends on which packages a build links, so
// byte-identity is asserted over everything the fleet computed, not over
// instrumentation registration order).
func pinnedGolden(t *testing.T, d Deployment) []byte {
	t.Helper()
	res, err := RunDeployment(d)
	if err != nil {
		t.Fatal(err)
	}
	res.Manifest.Metrics = obs.Snapshot{}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestFleetPinnedByteIdentity pins every strategy-delivery mode of the
// fleet to a committed golden, byte for byte. The two registry-pinned
// goldens (Portfolio and Selection both unset) predate the control plane;
// they were generated before internal/selector existed, on the exact
// TestFleetDeterminism and TestFleetDeterminismLongHorizon workload shapes.
// The portfolio-pinned golden (a one-element Portfolio, Selection unset)
// and the selection golden (the TestFleetSelectionDeterminism base) were
// generated before the fleet's delivery paths were unified into one, so
// they prove that unification changed no output.
func TestFleetPinnedByteIdentity(t *testing.T) {
	strategy2, err := NewPortfolio(Strategy2.DSL)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		golden string
		d      Deployment
	}{
		{"testdata/fleet_pinned.json", Deployment{
			Countries: []string{China, India, IndiaJio, IndiaVodafone, Iran,
				Kazakhstan, Turkmenistan, NoCensor},
			Protocols:   []string{"http", "https", "dns", "smtp"},
			Connections: 128,
			Seed:        1234,
		}},
		{"testdata/fleet_pinned_longhorizon.json", Deployment{
			Countries:       []string{China, IndiaJio, Turkmenistan, NoCensor},
			Protocols:       []string{"http", "https", "dns"},
			Connections:     96,
			SessionRequests: 3,
			RequestGap:      40 * time.Second,
			Reconnect:       ReconnectPolicy{MaxAttempts: 3, Backoff: 50 * time.Second, RetryAll: true},
			Seed:            1234,
		}},
		{"testdata/fleet_portfolio_pinned.json", Deployment{
			Countries: []string{China, India, IndiaJio, IndiaVodafone, Iran,
				Kazakhstan, Turkmenistan, NoCensor},
			Protocols:   []string{"http", "https", "dns", "smtp"},
			Connections: 128,
			Seed:        1234,
			Portfolio:   strategy2,
		}},
		{"testdata/fleet_selection.json", selectionDeployment(t)},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(tc.golden)
			if err != nil {
				t.Fatal(err)
			}
			got := pinnedGolden(t, tc.d)
			if string(got) != string(want) {
				t.Errorf("fleet run diverged from the golden %s:\n%s", tc.golden, got)
			}
		})
	}
}

// selectionDeployment is the control-plane workload the selection tests
// share: a portfolio of three §8 strategies raced by the epsilon-greedy
// bandit, with China's prst shifted to 0 at wave 2.
func selectionDeployment(t *testing.T) Deployment {
	t.Helper()
	portfolio, err := NewPortfolio(Strategy1.DSL, Strategy2.DSL, Strategy11.DSL)
	if err != nil {
		t.Fatal(err)
	}
	return Deployment{
		Countries:   []string{China, Kazakhstan, NoCensor},
		Protocols:   []string{"http", "https"},
		Connections: 96,
		Seed:        1234,
		Portfolio:   portfolio,
		Selection:   Selection{Policy: EpsilonGreedy},
		Shift:       CensorShift{AtWave: 2, Params: map[string]float64{"prst": 0}},
	}
}

// TestFleetSelectionDeterminism re-proves the workers × shards bit-identity
// matrix with the control plane live: a portfolio of three §8 strategies,
// the epsilon-greedy bandit picking per attempt, selector state merging at
// wave barriers, and a mid-run censor shift — every new scheduling surface
// this PR adds. UCB1 gets the same matrix on a reduced grid.
func TestFleetSelectionDeterminism(t *testing.T) {
	base := selectionDeployment(t)
	encode := func(d Deployment, workers, shards int) string {
		d.Workers = workers
		d.Shards = shards
		res, err := RunDeployment(d)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	want := encode(base, 1, 1)
	for _, w := range []int{1, 2, 8} {
		for _, s := range []int{1, 2, 8} {
			if w == 1 && s == 1 {
				continue
			}
			t.Run(fmt.Sprintf("eps/workers=%d_shards=%d", w, s), func(t *testing.T) {
				if got := encode(base, w, s); got != want {
					t.Errorf("selection run diverged from workers=1/shards=1:\n%s\nvs\n%s", got, want)
				}
			})
		}
	}
	ucb := base
	ucb.Selection = Selection{Policy: UCB1}
	wantUCB := encode(ucb, 1, 1)
	if wantUCB == want {
		t.Error("UCB1 and epsilon-greedy produced identical output; the policy knob is dead")
	}
	for _, layout := range []struct{ w, s int }{{2, 2}, {8, 0}} {
		t.Run(fmt.Sprintf("ucb1/workers=%d_shards=%d", layout.w, layout.s), func(t *testing.T) {
			if got := encode(ucb, layout.w, layout.s); got != wantUCB {
				t.Errorf("UCB1 run diverged from workers=1/shards=1:\n%s\nvs\n%s", got, wantUCB)
			}
		})
	}
	// The selection table must be populated and coherent: pulls cover every
	// routed attempt's arm draw, and each arm's outcomes sum to its pulls.
	res, err := RunDeployment(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, country := range []string{China, Kazakhstan} {
		sel := res.PerCountry[country].Selection
		if len(sel) == 0 {
			t.Fatalf("%s: no selection outcomes on a selection-enabled run", country)
		}
		var pulls uint64
		for name, arm := range sel {
			if arm.Pulls != arm.Served+arm.TornDown+arm.Unestablished {
				t.Errorf("%s/%q: pulls %d != outcomes %d+%d+%d", country, name,
					arm.Pulls, arm.Served, arm.TornDown, arm.Unestablished)
			}
			pulls += arm.Pulls
		}
		if pulls == 0 {
			t.Errorf("%s: selection table has zero pulls", country)
		}
	}
	if res.PerCountry[NoCensor].Selection != nil {
		t.Error("uncensored (unrouted) country has a selection table; no arms should be pulled there")
	}
}

// TestFleetCollapseAndRecover is the committed scenario the tentpole
// demands: a mid-run censor shift collapses the strategy the §8 deployment
// pins for China, and the control plane must quarantine the cratered arm,
// re-explore, and recover availability above the pinned baseline.
//
// The lever: Strategy 1 (TCB desync via injected RST) relies on the GFW
// resynchronizing on server RSTs — calibrated PRst 0.52 for HTTP. Shifting
// prst to 0 mid-run makes the censor ignore those RSTs entirely, so the
// pinned strategy's evasion collapses to the no-evasion floor. Strategy 2
// (desync via a corrupt-ACK data burst) rides the independent pload path
// and keeps working; the bandit just has to find it.
func TestFleetCollapseAndRecover(t *testing.T) {
	portfolio, err := NewPortfolio(Strategy1.DSL, Strategy2.DSL)
	if err != nil {
		t.Fatal(err)
	}
	base := Deployment{
		Countries:      []string{China},
		Protocols:      []string{"http"},
		Connections:    240,
		ClientsPerCell: 6,
		WavesPerCell:   10,
		// Routed waves only: the collapse signal should not be diluted by
		// collateral from unprotected clients.
		UnprotectedPerCell: -1,
		Seed:               99,
		Shift:              CensorShift{AtWave: 2, Params: map[string]float64{"prst": 0}},
	}

	pinned := base // Portfolio unset, Selection unset: §8 pins Strategy 1.
	pinnedRes, err := RunDeployment(pinned)
	if err != nil {
		t.Fatal(err)
	}

	selected := base
	selected.Portfolio = portfolio
	selected.Selection = Selection{Policy: EpsilonGreedy}
	selRes, err := RunDeployment(selected)
	if err != nil {
		t.Fatal(err)
	}

	pinnedAvail := pinnedRes.PerCountry[China].Availability()
	selAvail := selRes.PerCountry[China].Availability()
	t.Logf("availability: pinned %.3f, selected %.3f (fallbacks %d)",
		pinnedAvail, selAvail, selRes.Fallbacks)
	t.Logf("selection table: %+v", selRes.PerCountry[China].Selection)

	// The shift must actually collapse the pinned strategy: with the censor
	// ignoring RSTs from wave 2 on, the pinned run's evasion has to land far
	// below its calibrated ~90% (8 of 10 waves run against the shifted
	// censor).
	if rate := pinnedRes.PerCountry[China].EvasionRate(); rate > 0.5 {
		t.Fatalf("prst=0 shift did not collapse pinned Strategy 1: evasion %.2f", rate)
	}
	if selAvail <= pinnedAvail {
		t.Errorf("selector did not recover availability: selected %.3f <= pinned %.3f",
			selAvail, pinnedAvail)
	}
	if selRes.Fallbacks == 0 {
		t.Error("collapse was never detected: Fallbacks = 0")
	}
	// After recovery, the surviving arm must dominate the table.
	sel := selRes.PerCountry[China].Selection
	if sel[portfolio.Name(1)].Served <= sel[portfolio.Name(0)].Served {
		t.Errorf("surviving Strategy 2 should out-serve collapsed Strategy 1: %+v", sel)
	}
}

// TestSentinelErrors pins the errors.Is contract of the redesigned API: the
// unknown-country/protocol/invalid-strategy failures are matchable sentinels
// on every entry point, while the messages keep naming valid values.
func TestSentinelErrors(t *testing.T) {
	if _, err := Run(Simulation{Country: "narnia", Protocol: "http", Trials: 1}); !errors.Is(err, ErrUnknownCountry) {
		t.Errorf("Run(narnia) = %v, want ErrUnknownCountry", err)
	}
	if _, err := Run(Simulation{Country: China, Protocol: "telnet", Trials: 1}); !errors.Is(err, ErrUnknownProtocol) {
		t.Errorf("Run(telnet) = %v, want ErrUnknownProtocol", err)
	}
	if _, err := Run(Simulation{Country: China, Protocol: "http", Strategy: "[broken", Trials: 1}); !errors.Is(err, ErrInvalidStrategy) {
		t.Errorf("Run(broken strategy) = %v, want ErrInvalidStrategy", err)
	}
	if _, err := RunDeployment(Deployment{Countries: []string{"narnia"}, Connections: 1}); !errors.Is(err, ErrUnknownCountry) {
		t.Errorf("RunDeployment(narnia) = %v, want ErrUnknownCountry", err)
	}
	if _, err := Evolve(EvolveOptions{Country: "narnia", Protocol: "http"}); !errors.Is(err, ErrUnknownCountry) {
		t.Errorf("Evolve(narnia) = %v, want ErrUnknownCountry", err)
	}
	if _, err := Evolve(EvolveOptions{Country: China, Protocol: "telnet"}); !errors.Is(err, ErrUnknownProtocol) {
		t.Errorf("Evolve(telnet) = %v, want ErrUnknownProtocol", err)
	}
	if _, err := NewPortfolio(Strategy1.DSL, "[broken"); !errors.Is(err, ErrInvalidStrategy) {
		t.Errorf("NewPortfolio(broken) = %v, want ErrInvalidStrategy", err)
	}
	if _, err := RunDeployment(Deployment{
		Connections: 1,
		Selection:   Selection{Policy: "thompson"},
	}); err == nil {
		t.Error("unknown selection policy: want error, got nil")
	}
}
