package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"geneva"
	"geneva/internal/strategies"
)

// fleetCmd runs the deployment-scale serving harness: one server
// endpoint behind the §8 router serving a mixed-country, mixed-protocol
// client fleet over shared cell networks, with cross-connection censor
// state (GFW residual censorship) exercised for real.
//
//	geneva fleet [-connections N] [-countries csv] [-protocols csv]
//	             [-clients N] [-waves N] [-unprotected N] [-gap D]
//	             [-requests N] [-reqgap D]
//	             [-reconnect-max N] [-reconnect-backoff D] [-retry-all]
//	             [-portfolio list] [-select policy] [-epsilon P] [-ucb-c C]
//	             [-decay F] [-min-pulls N] [-collapse-below P] [-quarantine N]
//	             [-shift-wave N] [-shift-country c] [-shift-params k=v,...]
//	             [-seed N] [-workers N] [-shards N]
//	             [-loss P] [-dup P] [-reorder P] [-jitter D]
//	             [-json] [-metrics] [-manifest out.json]
//	             [-cpuprofile cpu.prof] [-memprofile mem.prof]
//
// -portfolio takes a ";"-separated strategy list — each entry a raw Geneva
// DSL program or a bare paper-strategy number (1-11) — and serves routed
// clients from it instead of the registry-pinned §8 strategies. On its own
// the portfolio pins its first entry everywhere; with -select epsilon-greedy
// or -select ucb1 the online control plane races the whole portfolio per
// (country, protocol) and the table grows a per-strategy selection section.
// -shift-params re-tunes censor calibration (e.g. prst=0, or http.prst=0 to
// scope by protocol) at the start of wave -shift-wave — the lever for the
// collapse-and-recover scenario in EXPERIMENTS.md.
//
// -requests stretches every HTTP/HTTPS/DNS connection into a keep-alive
// session of that many exchanges, spaced -reqgap of virtual time apart, and
// the -reconnect-* flags pick the client's behaviour when a session dies
// mid-way — together they turn the table's availability column into the
// long-horizon outcome a first-connection evasion rate cannot see.
//
// -workers bounds the wave worker pool (0 = one per CPU) and -shards bounds
// how many scheduling shards each country's cells split into (0 = one shard
// per cell, the finest parallelism). Both are pure scheduling knobs: every
// number printed is identical at any width; only the closing conns/sec
// line — a wall-clock measurement — varies with them.
func fleetCmd(fs *flag.FlagSet) func(io.Reader, io.Writer) error {
	connections := fs.Int("connections", 500, "total client connections across the fleet")
	countries := fs.String("countries", "", "comma-separated countries (default "+
		strings.Join(geneva.Countries()[:len(geneva.Countries())-1], ",")+")")
	protocols := fs.String("protocols", "", "comma-separated protocols the fleet cycles through (default http)")
	clients := fs.Int("clients", 0, "routed clients per cell network (0 = default 4)")
	waves := fs.Int("waves", 0, "connection waves per cell (0 = default 4)")
	unprotected := fs.Int("unprotected", 0, "unrouted clients per cell's mixed waves (0 = default 1, negative = none)")
	gap := fs.Duration("gap", 0, "virtual idle time between waves (0 = default 120s, past the GFW residual window; negative = none)")
	requests := fs.Int("requests", 0, "keep-alive exchanges per connection (0 = one-shot sessions)")
	reqgap := fs.Duration("reqgap", 0, "virtual think time between keep-alive exchanges (0 = default 30s)")
	reconnectMax := fs.Int("reconnect-max", 0, "max connection attempts per session, reconnects included (0 = per-protocol default)")
	reconnectBackoff := fs.Duration("reconnect-backoff", 0, "virtual wait before each reconnect (0 = immediate)")
	retryAll := fs.Bool("retry-all", false, "reconnect after any failure, not only abortive teardown")
	portfolioList := fs.String("portfolio", "", "\";\"-separated strategies (raw DSL or paper number 1-11) routed clients are served from")
	selectPolicy := fs.String("select", "", "online selection policy: epsilon-greedy or ucb1 (default: pinned, no selection)")
	epsilon := fs.Float64("epsilon", 0, "epsilon-greedy exploration probability (0 = default 0.1)")
	ucbC := fs.Float64("ucb-c", 0, "UCB1 exploration constant (0 = default 1.5)")
	decay := fs.Float64("decay", 0, "sliding-window decay applied to arm stats at every wave barrier (0 = default 0.9)")
	minPulls := fs.Float64("min-pulls", 0, "decayed pulls before collapse detection can trigger (0 = default 3)")
	collapseBelow := fs.Float64("collapse-below", 0, "windowed success rate under which the incumbent is quarantined (0 = default 0.2)")
	quarantine := fs.Int("quarantine", 0, "wave barriers a collapsed arm sits out (0 = default 2)")
	shiftWave := fs.Int("shift-wave", 0, "wave at whose start -shift-params applies")
	shiftCountry := fs.String("shift-country", "", "restrict -shift-params to one country's cells (default all)")
	shiftParams := fs.String("shift-params", "", "comma-separated censor re-tunes, name=value (e.g. prst=0 or http.prst=0)")
	seed := fs.Int64("seed", 1, "base seed; equal workloads agree exactly")
	workers := fs.Int("workers", 0, "wave worker-pool width (0 = one per CPU); results are identical at any width")
	shards := fs.Int("shards", 0, "scheduling shards per country (0 = one shard per cell); results are identical at any width")
	loss := fs.Float64("loss", 0, "per-packet loss probability on every cell network")
	dup := fs.Float64("dup", 0, "per-packet duplication probability")
	reorder := fs.Float64("reorder", 0, "per-packet reordering probability")
	jitter := fs.Duration("jitter", 0, "max random extra delivery delay (e.g. 3ms)")
	asJSON := fs.Bool("json", false, "print the full FleetResult as JSON instead of the table")
	diag := registerDiag(fs, "write the run manifest (JSON) to this file; implies -metrics")
	return func(_ io.Reader, w io.Writer) error {
		if _, _, err := impairmentFlags(*loss, *dup, *reorder, *jitter); err != nil {
			return usageError{err}
		}
		d := geneva.Deployment{
			Connections:        *connections,
			ClientsPerCell:     *clients,
			WavesPerCell:       *waves,
			UnprotectedPerCell: *unprotected,
			WaveGap:            *gap,
			SessionRequests:    *requests,
			RequestGap:         *reqgap,
			Reconnect: geneva.ReconnectPolicy{
				MaxAttempts: *reconnectMax,
				Backoff:     *reconnectBackoff,
				RetryAll:    *retryAll,
			},
			Seed:    *seed,
			Workers: *workers,
			Shards:  *shards,
			Impairments: geneva.Impairments{
				Loss: *loss, Duplicate: *dup, Reorder: *reorder, Jitter: *jitter,
			},
			Selection: geneva.Selection{
				Policy:          geneva.SelectionPolicy(*selectPolicy),
				Epsilon:         *epsilon,
				UCBC:            *ucbC,
				Decay:           *decay,
				MinPulls:        *minPulls,
				CollapseBelow:   *collapseBelow,
				QuarantineWaves: *quarantine,
			},
		}
		if *countries != "" {
			d.Countries = strings.Split(*countries, ",")
		}
		if *protocols != "" {
			d.Protocols = strings.Split(*protocols, ",")
		}
		if *portfolioList != "" {
			p, err := parsePortfolio(*portfolioList)
			if err != nil {
				return usagef("-portfolio: %w", err)
			}
			d.Portfolio = p
		}
		if *shiftParams != "" {
			params, err := parseShiftParams(*shiftParams)
			if err != nil {
				return usagef("-shift-params: %w", err)
			}
			d.Shift = geneva.CensorShift{AtWave: *shiftWave, Country: *shiftCountry, Params: params}
		}
		if err := diag.start(); err != nil {
			return err
		}

		start := time.Now()
		res, err := geneva.RunDeployment(d)
		if err != nil {
			return err
		}
		elapsed := time.Since(start)

		if *asJSON {
			b, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				return err
			}
			fmt.Fprintln(w, string(b))
		} else {
			printTable(w, res)
		}
		if err := diag.finish(w, res.Manifest); err != nil {
			return err
		}
		// Rate from the unrounded elapsed time: at 10^5+ connections a run can
		// finish in near-millisecond territory per cell, and rounding before
		// dividing (or dividing by a zero-rounded duration) skews the only
		// wall-clock-dependent line the command prints.
		rate := "inf"
		if secs := elapsed.Seconds(); secs > 0 {
			rate = fmt.Sprintf("%.0f", float64(res.Connections)/secs)
		}
		fmt.Fprintf(w, "\n%d connections in %d cells in %v (%s conns/sec, workers=%d, shards=%d)\n",
			res.Connections, res.Cells, elapsed.Round(time.Millisecond),
			rate, *workers, *shards)
		return nil
	}
}

// parsePortfolio resolves a ";"-separated strategy list: each entry is a raw
// Geneva DSL program, or a bare paper-strategy number looked up in the
// library (so "-portfolio 1;2" races the paper's two Simultaneous Open
// strategies).
func parsePortfolio(list string) (geneva.Portfolio, error) {
	var dsls []string
	for _, entry := range strings.Split(list, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		if n, err := strconv.Atoi(entry); err == nil {
			s, ok := strategies.ByNumber(n)
			if !ok {
				return geneva.Portfolio{}, fmt.Errorf("no paper strategy %d (valid: 1-%d)", n, len(strategies.All()))
			}
			entry = s.DSL
		}
		dsls = append(dsls, entry)
	}
	return geneva.NewPortfolio(dsls...)
}

// parseShiftParams parses "name=value,name=value" censor re-tunes.
func parseShiftParams(list string) (map[string]float64, error) {
	params := make(map[string]float64)
	for _, kv := range strings.Split(list, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("shift param %q: want name=value", kv)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("shift param %q: %v", kv, err)
		}
		params[name] = f
	}
	return params, nil
}

func printTable(w io.Writer, res geneva.FleetResult) {
	countries := sortedKeys(res.PerCountry)
	fmt.Fprintf(w, "%-14s %6s %6s %8s %10s %12s %8s %10s %6s\n",
		"country", "conns", "served", "routed", "contested", "unprotected", "evasion", "requests", "avail")
	for _, c := range countries {
		cs := res.PerCountry[c]
		name := c
		if name == "" {
			name = "(uncensored)"
		}
		fmt.Fprintf(w, "%-14s %6d %6d %3d/%-4d %4d/%-5d %5d/%-6d %7.0f%% %4d/%-5d %5.0f%%\n",
			name, cs.Connections, cs.Succeeded,
			cs.RoutedSucceeded, cs.Routed,
			cs.ContestedSucceeded, cs.Contested,
			cs.UnprotectedSucceeded, cs.Unprotected,
			100*cs.EvasionRate(),
			cs.RequestsServed, cs.RequestsAttempted,
			100*cs.Availability())
	}
	fmt.Fprintf(w, "\noutcomes: %d served, %d torn down, %d never established\n",
		res.Outcomes["served"], res.Outcomes["torn_down"], res.Outcomes["never_established"])
	fmt.Fprintf(w, "requests: %d/%d served, availability %.1f%%\n",
		res.RequestsServed, res.RequestsAttempted, 100*res.Availability())
	printSelection(w, res, countries)
}

// printSelection renders the per-country selection table of a control-plane
// run: one row per (country, portfolio strategy) with pulls and outcome mix.
// Pinned runs have no selection state and print nothing.
func printSelection(w io.Writer, res geneva.FleetResult, countries []string) {
	any := false
	for _, c := range countries {
		sel := res.PerCountry[c].Selection
		if len(sel) == 0 {
			continue
		}
		if !any {
			fmt.Fprintf(w, "\nselection (%d fallbacks fleet-wide):\n", res.Fallbacks)
			fmt.Fprintf(w, "%-14s %6s %6s %6s %8s  %s\n",
				"country", "pulls", "served", "torn", "unestab", "strategy")
			any = true
		}
		for _, n := range sortedKeys(sel) {
			arm := sel[n]
			fmt.Fprintf(w, "%-14s %6d %6d %6d %8d  %s\n",
				c, arm.Pulls, arm.Served, arm.TornDown, arm.Unestablished, n)
		}
	}
}
