package fleet

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"geneva/internal/eval"
	"geneva/internal/netsim"
	"geneva/internal/obs"
)

// TestFleetWorkload pins the harness's basic accounting on the default
// registry-wide country mix (seven censors): the plan serves exactly the
// requested number of connections, splits them evenly, and the outcome mix
// partitions them.
func TestFleetWorkload(t *testing.T) {
	r, err := Run(Workload{Connections: 112, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if r.Connections != 112 {
		t.Fatalf("Connections = %d, want 112", r.Connections)
	}
	if r.Cells != 7 {
		t.Fatalf("Cells = %d, want 7 (one per country at this size)", r.Cells)
	}
	sum := 0
	for name, n := range r.Outcomes {
		if n < 0 {
			t.Errorf("outcome %q negative: %d", name, n)
		}
		sum += n
	}
	if sum != r.Connections {
		t.Errorf("outcomes sum to %d, want %d (must partition the fleet)", sum, r.Connections)
	}
	succ := 0
	for country, cs := range r.PerCountry {
		if cs.Connections != 16 {
			t.Errorf("%s: %d connections, want an even 16", country, cs.Connections)
		}
		if cs.Routed+cs.Contested+cs.Unprotected != cs.Connections {
			t.Errorf("%s: kinds %d+%d+%d don't partition %d connections",
				country, cs.Routed, cs.Contested, cs.Unprotected, cs.Connections)
		}
		succ += cs.Succeeded
	}
	if succ != r.Succeeded {
		t.Errorf("per-country Succeeded sums to %d, want %d", succ, r.Succeeded)
	}

	// The deterministic censors (every ISP of the India family, Iran,
	// Kazakhstan, and the TMC — whose residual window is shorter than the
	// default wave gap) have no cross-connection state the routed strategy
	// can't out-run, so it wins outright even in a shared cell — the §8
	// result, now at fleet scale.
	deterministic := []string{eval.CountryIndia, eval.CountryIndiaJio, eval.CountryIndiaVodafone,
		eval.CountryIran, eval.CountryKazakhstan, eval.CountryTurkmenistan}
	for _, c := range deterministic {
		if rate := r.PerCountry[c].EvasionRate(); rate != 1 {
			t.Errorf("%s: routed evasion %.2f, want 1.00", c, rate)
		}
	}
	// China runs Strategy 1 (~54% per isolated flow) AND pays residual
	// collateral from cellmates; the fleet rate lands below the isolated
	// rate but must stay nonzero.
	if rate := r.PerCountry[eval.CountryChina].EvasionRate(); rate <= 0 || rate >= 0.75 {
		t.Errorf("china: routed evasion %.2f, want in (0, 0.75)", rate)
	}
	// Unprotected clients in deterministic-censor countries never succeed
	// on a censored workload: no route matched, so the server never helped
	// them. (Jio censors only HTTPS, so its unprotected HTTP clients pass
	// — skip it here.)
	for _, c := range deterministic {
		if c == eval.CountryIndiaJio {
			continue
		}
		if n := r.PerCountry[c].UnprotectedSucceeded; n != 0 {
			t.Errorf("%s: %d unprotected successes, want 0", c, n)
		}
	}
}

// TestFleetUncensoredCountry: a CountryNone population has no censor in its
// cells, so every connection is served.
func TestFleetUncensoredCountry(t *testing.T) {
	r, err := Run(Workload{Countries: []string{eval.CountryNone}, Connections: 12, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if r.Succeeded != 12 {
		t.Fatalf("uncensored fleet: %d/12 served, want all", r.Succeeded)
	}
	if r.Outcomes["served"] != 12 || r.Outcomes["torn_down"] != 0 {
		t.Fatalf("uncensored outcomes = %v, want 12 served", r.Outcomes)
	}
}

// TestFleetCrossConnectionResidual is the cross-connection censor-state
// regression: with no gap between waves, GFW residual censorship opened by
// one wave's censored flows (the unprotected client guarantees some) bleeds
// into the next wave and tears down flows that would otherwise have been
// served. The harness must show MORE residual hits and FEWER routed
// successes at WaveGap<0 than at the default 120 s gap, which outlives the
// ~90 s residual window.
func TestFleetCrossConnectionResidual(t *testing.T) {
	base := Workload{
		Countries:   []string{eval.CountryChina},
		Connections: 40,
		Seed:        42,
	}
	run := func(gap time.Duration) (CountryStats, uint64) {
		prev := obs.Enabled()
		obs.SetEnabled(true)
		obs.Reset()
		defer func() {
			obs.Reset()
			obs.SetEnabled(prev)
		}()
		wl := base
		wl.WaveGap = gap
		r, err := Run(wl)
		if err != nil {
			t.Fatal(err)
		}
		return r.PerCountry[eval.CountryChina], obs.Take().Counters["censor.gfw.http.residual_hits"]
	}
	gapped, gappedHits := run(120 * time.Second)
	merged, mergedHits := run(-1)
	if mergedHits <= gappedHits {
		t.Errorf("residual hits: no-gap %d <= gapped %d; cross-wave residual state never fired",
			mergedHits, gappedHits)
	}
	if merged.RoutedSucceeded >= gapped.RoutedSucceeded {
		t.Errorf("routed successes: no-gap %d >= gapped %d; residual collateral cost nothing",
			merged.RoutedSucceeded, gapped.RoutedSucceeded)
	}
}

// TestFleetTMCResidual: the TMC carries cross-connection state through the
// same residual ledger as the GFW (censor.ResidualCarrier), so the fleet
// regression holds for it too: with no gap between waves, one wave's
// tear-downs poison the server for the next wave's handshakes; with the
// default 120 s gap — longer than the TMC's 60 s window — the cross-wave
// seeds expire, so strictly fewer connections hit residual state (cellmates
// inside one wave still poison each other; only the cross-WAVE bleed is
// gap-sensitive).
func TestFleetTMCResidual(t *testing.T) {
	base := Workload{
		Countries:   []string{eval.CountryTurkmenistan},
		Connections: 40,
		Seed:        42,
	}
	run := func(gap time.Duration) uint64 {
		prev := obs.Enabled()
		obs.SetEnabled(true)
		obs.Reset()
		defer func() {
			obs.Reset()
			obs.SetEnabled(prev)
		}()
		wl := base
		wl.WaveGap = gap
		if _, err := Run(wl); err != nil {
			t.Fatal(err)
		}
		c := obs.Take().Counters
		return c["censor.tmc.dns.residual_hits"] + c["censor.tmc.http.residual_hits"] +
			c["censor.tmc.https.residual_hits"]
	}
	gapped := run(120 * time.Second)
	merged := run(-1)
	if merged <= gapped {
		t.Errorf("TMC residual hits: no-gap %d <= gapped %d; the ledger never carried TMC state across waves",
			merged, gapped)
	}
}

// TestFleetValidation: a workload naming an unmodeled country or protocol
// must come back as a descriptive error, not a panic (the pre-fix behaviour
// deep in eval was a panic).
func TestFleetValidation(t *testing.T) {
	if _, err := Run(Workload{Countries: []string{"atlantis"}}); err == nil {
		t.Error("unknown country: want error, got nil")
	} else if !strings.Contains(err.Error(), "atlantis") || !strings.Contains(err.Error(), eval.CountryChina) {
		t.Errorf("unknown-country error should name the input and the valid values, got: %v", err)
	}
	if _, err := Run(Workload{Protocols: []string{"gopher"}}); err == nil {
		t.Error("unknown protocol: want error, got nil")
	} else if !strings.Contains(err.Error(), "gopher") || !strings.Contains(err.Error(), "http") {
		t.Errorf("unknown-protocol error should name the input and the valid values, got: %v", err)
	}
	if _, err := Run(Workload{ClientsPerCell: 300}); err == nil {
		t.Error("oversized cell: want error, got nil")
	}
	// Inputs that used to be silently ignored (or silently acted as 0) are
	// rejected, each with an error naming the offending field.
	shift := map[string]float64{"prst": 0}
	for _, tc := range []struct {
		field string
		wl    Workload
	}{
		{"Shift.Country", Workload{Countries: []string{eval.CountryChina},
			Shift: CensorShift{Country: "atlantis", Params: shift}}},
		{"Shift.Country", Workload{Countries: []string{eval.CountryChina},
			Shift: CensorShift{Country: eval.CountryIran, Params: shift}}},
		{"Shift.AtWave", Workload{Shift: CensorShift{AtWave: -1, Params: shift}}},
		{"Reconnect.MaxAttempts", Workload{Reconnect: ReconnectPolicy{MaxAttempts: -3}}},
		{"Reconnect.Backoff", Workload{Reconnect: ReconnectPolicy{Backoff: -time.Second}}},
		{"Countries", Workload{Countries: []string{eval.CountryChina, eval.CountryChina}}},
		{"Impairments.Loss", Workload{Impairments: netsim.Profile{Loss: 1.5}}},
		{"Impairments.Loss", Workload{Impairments: netsim.Profile{Loss: math.NaN()}}},
		{"Impairments.Duplicate", Workload{Impairments: netsim.Profile{Duplicate: -0.1}}},
		{"Impairments.Reorder", Workload{Impairments: netsim.Profile{Reorder: 2}}},
		{"Impairments.Jitter", Workload{Impairments: netsim.Profile{Jitter: -time.Millisecond}}},
	} {
		tc.wl.Connections = 8
		_, err := Run(tc.wl)
		if err == nil {
			t.Errorf("%s: invalid value accepted", tc.field)
			continue
		}
		if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: error does not name the field: %v", tc.field, err)
		}
		if tc.field == "Shift.Country" && !errors.Is(err, eval.ErrUnknownCountry) {
			t.Errorf("%s: error does not wrap ErrUnknownCountry: %v", tc.field, err)
		}
	}
}

// TestFleetMetricsMatchResult: with collection enabled, the fleet counters
// must agree exactly with the structured Result — and, like every obs
// instrument, be identical at any worker width. The long-horizon shape
// (keep-alive sessions, RetryAll reconnects with backoff) pins the
// reconnect counters, including the identity attempts = connections +
// reconnects.
func TestFleetMetricsMatchResult(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer func() {
		obs.Reset()
		obs.SetEnabled(prev)
	}()
	for _, tc := range []struct {
		name string
		wl   Workload
	}{
		{"oneshot", Workload{Connections: 48, Seed: 7}},
		{"longhorizon", Workload{
			Countries:       []string{eval.CountryChina, eval.CountryIndiaJio, eval.CountryTurkmenistan, eval.CountryNone},
			Protocols:       []string{"http", "https", "dns"},
			Connections:     96,
			SessionRequests: 3,
			RequestGap:      40 * time.Second,
			Reconnect:       ReconnectPolicy{MaxAttempts: 3, Backoff: 50 * time.Second, RetryAll: true},
			Seed:            1234,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap := func(workers int) (Result, obs.Snapshot) {
				obs.Reset()
				w := tc.wl
				w.Workers = workers
				r, err := Run(w)
				if err != nil {
					t.Fatal(err)
				}
				return r, obs.Take()
			}
			r, s := snap(1)
			var reconnects, recoveries int
			for _, cs := range r.PerCountry {
				reconnects += cs.Reconnects
				recoveries += cs.Recoveries
			}
			for _, c := range []struct {
				name string
				want int
			}{
				{"fleet.connections", r.Connections},
				{"fleet.connections_served", r.Succeeded},
				{"fleet.connections_torn_down", r.Outcomes["torn_down"]},
				{"fleet.connections_unestablished", r.Outcomes["never_established"]},
				{"fleet.cells", r.Cells},
				{"fleet.requests_attempted", r.RequestsAttempted},
				{"fleet.requests_served", r.RequestsServed},
				{"fleet.uptime_virtual_ns", int(r.UptimeVirtual)},
				{"fleet.lifetime_virtual_ns", int(r.LifetimeVirtual)},
				{"fleet.attempts", r.Connections + reconnects},
				{"fleet.reconnects", reconnects},
				{"fleet.recoveries", recoveries},
			} {
				if got := s.Counters[c.name]; got != uint64(c.want) {
					t.Errorf("%s = %d, want %d", c.name, got, c.want)
				}
			}
			if tc.name == "longhorizon" && reconnects == 0 {
				t.Error("long-horizon shape reconnected nothing; the reconnect counters went unexercised")
			}
			for _, def := range eval.Registry() {
				cs := r.PerCountry[def.Country]
				if got := s.Counters["fleet."+def.MetricLabel+".connections"]; got != uint64(cs.Connections) {
					t.Errorf("fleet.%s.connections = %d, want %d", def.MetricLabel, got, cs.Connections)
				}
				if got := s.Counters["fleet."+def.MetricLabel+".evaded"]; got != uint64(cs.Succeeded) {
					t.Errorf("fleet.%s.evaded = %d, want %d", def.MetricLabel, got, cs.Succeeded)
				}
			}
			if g := s.Gauges["fleet.concurrent_connections"]; g < 2 {
				t.Errorf("fleet.concurrent_connections = %d, want >= 2 (waves are concurrent)", g)
			}
			for _, w := range []int{2, 8} {
				_, got := snap(w)
				for name, v := range s.Counters {
					if got.Counters[name] != v {
						t.Errorf("workers=%d: counter %s = %d, want %d", w, name, got.Counters[name], v)
					}
				}
			}
		})
	}
}

// TestCountryStatsAddCoversEveryCount: the per-cell tallies merge through
// CountryStats.add, so a count it forgets would silently read zero in
// PerCountry and in the fleet totals. Every integer or duration field must
// be summed.
func TestCountryStatsAddCoversEveryCount(t *testing.T) {
	var one CountryStats
	v := reflect.ValueOf(&one).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Int || f.Kind() == reflect.Int64 {
			f.SetInt(1)
		}
	}
	var sum CountryStats
	sum.add(one)
	sum.add(one)
	got := reflect.ValueOf(sum)
	for i := 0; i < got.NumField(); i++ {
		if f := got.Field(i); (f.Kind() == reflect.Int || f.Kind() == reflect.Int64) && f.Int() != 2 {
			t.Errorf("CountryStats.add does not sum %s", got.Type().Field(i).Name)
		}
	}
}

// TestFleetManifestStable: the manifest embeds the workload config and seed
// schedule but never the worker width or wall-clock anything, so two runs of
// one Workload at different widths produce identical manifests.
func TestFleetManifestStable(t *testing.T) {
	wl := Workload{Connections: 24, Seed: 5}
	a, err := Run(wl)
	if err != nil {
		t.Fatal(err)
	}
	wl.Workers = 8
	b, err := Run(wl)
	if err != nil {
		t.Fatal(err)
	}
	aj, bj := a.Manifest.JSON(), b.Manifest.JSON()
	if string(aj) != string(bj) {
		t.Errorf("manifest differs across worker widths:\n%s\nvs\n%s", aj, bj)
	}
	if a.Manifest.Config["connections"] != "24" {
		t.Errorf("manifest connections = %q, want 24", a.Manifest.Config["connections"])
	}
	if _, ok := a.Manifest.Config["workers"]; ok {
		t.Error("manifest must not record worker width")
	}
	// The long-horizon knobs are part of the run record (their resolved
	// defaults, so a manifest alone reproduces the run).
	if got := a.Manifest.Config["session_requests"]; got != "1" {
		t.Errorf("manifest session_requests = %q, want 1", got)
	}
	if got := a.Manifest.Config["reconnect_retry_all"]; got != "false" {
		t.Errorf("manifest reconnect_retry_all = %q, want false", got)
	}
}
