package main

import (
	"flag"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"geneva/internal/eval"
	"geneva/internal/netsim"
	"geneva/internal/obs"
)

// evaluateCmd reproduces the paper's tables, figures, and follow-up
// experiments against the simulated censors. With no flags it runs the full
// evaluation (the content of EXPERIMENTS.md and docs/RESULTS.txt).
//
//	geneva evaluate [-trials N] [-workers N] [-table 1|2|compat] [-figure 1|2|3]
//	         [-experiment client-side|desync|induced-rst|s7-resync|residual|
//	                      kz-triple|kz-get|kz-flags|kz-probe|ports|stateless|
//	                      carrier|ablations|differential|deploy|dns-retries|
//	                      order|robustness|all]
//	         [-loss P] [-dup P] [-reorder P] [-jitter D]
//	         [-metrics] [-manifest out.json]
//	         [-cpuprofile cpu.prof] [-memprofile mem.prof]
//
// -workers caps the trial worker pool (0 = one per CPU). Every number
// printed is identical at any width; the closing stats line reports the
// width used and the wall-clock time.
//
// -metrics enables the cross-layer counters (internal/obs) and prints the
// nonzero ones after the run; -manifest additionally writes the structured
// run manifest — config, seed schedule, and every counter, zeroes included —
// as diffable JSON. Counters observe and never steer, so every printed
// number is identical with and without them.
//
// The impairment flags run the robustness sweep (evasion rate vs. loss rate
// for every strategy against every censor) on a degraded network path:
// -loss 0.02 sweeps all strategies at 2% packet loss; -experiment robustness
// climbs the default loss ladder instead.
func evaluateCmd(fs *flag.FlagSet) func(io.Reader, io.Writer) error {
	trials := fs.Int("trials", 200, "trials per Table 2 cell / experiment sample size")
	workers := fs.Int("workers", 0, "default worker-pool width for every experiment (0 = one per CPU); results are identical at any width")
	table := fs.String("table", "", "reproduce a table: 1, 2, or compat")
	figure := fs.String("figure", "", "reproduce a figure: 1, 2, or 3")
	experiment := fs.String("experiment", "", "run a follow-up experiment (see doc)")
	loss := fs.Float64("loss", -1, "robustness sweep at this packet loss rate (e.g. 0.02)")
	dup := fs.Float64("dup", 0, "robustness sweep: per-packet duplication probability")
	reorder := fs.Float64("reorder", 0, "robustness sweep: per-packet reordering probability")
	jitter := fs.Duration("jitter", 0, "robustness sweep: max random extra delivery delay (e.g. 3ms)")
	diag := registerDiag(fs, "write a structured run manifest (JSON) to this file; implies -metrics")
	return func(_ io.Reader, w io.Writer) error {
		base, ladder, err := impairmentFlags(*loss, *dup, *reorder, *jitter)
		if err != nil {
			return usageError{err}
		}
		for _, c := range []struct {
			flag, name string
			valid      []string
		}{
			{"table", *table, tables},
			{"figure", *figure, figures},
			{"experiment", *experiment, append([]string{"all", "robustness"}, allExperiments...)},
		} {
			if c.name != "" && !slices.Contains(c.valid, c.name) {
				return usagef("unknown %s %q (valid: %s)", c.flag, c.name, strings.Join(c.valid, ", "))
			}
		}
		eval.SetWorkers(*workers)
		if err := diag.start(); err != nil {
			return err
		}
		start := time.Now()

		any := false
		if *table != "" {
			runTable(w, *table, *trials)
			any = true
		}
		if *figure != "" {
			runFigure(w, *figure, *trials)
			any = true
		}
		if *experiment != "" {
			runExperiment(w, *experiment, *trials)
			any = true
		}
		if ladder != nil || base != (netsim.Profile{}) {
			runRobustness(w, base, ladder, *trials)
			any = true
		}
		if !any {
			runTable(w, "1", *trials)
			runTable(w, "2", *trials)
			runFigure(w, "1", *trials)
			runFigure(w, "2", *trials)
			runFigure(w, "3", *trials)
			runTable(w, "compat", *trials)
			runExperiment(w, "all", *trials)
		}
		fmt.Fprintf(w, "\n[workers=%d  wall=%s]\n", eval.Workers(), time.Since(start).Round(time.Millisecond))
		cfg := map[string]string{
			"trials":     strconv.Itoa(*trials),
			"workers":    strconv.Itoa(*workers),
			"table":      *table,
			"figure":     *figure,
			"experiment": *experiment,
			"loss":       strconv.FormatFloat(*loss, 'g', -1, 64),
			"dup":        strconv.FormatFloat(*dup, 'g', -1, 64),
			"reorder":    strconv.FormatFloat(*reorder, 'g', -1, 64),
			"jitter":     jitter.String(),
		}
		// The harness's experiment seed bases are fixed in source; the
		// schedule records the derivation every trial applies to its base.
		return diag.finish(w, obs.NewManifest("evaluate", cfg, eval.SeedSchedule(0)))
	}
}

// The -table and -figure names, and the experiments -experiment all runs,
// in order.
var (
	tables         = []string{"1", "2", "compat"}
	figures        = []string{"1", "2", "3"}
	allExperiments = []string{
		"client-side", "desync", "induced-rst", "s7-resync", "residual",
		"kz-triple", "kz-get", "kz-flags", "kz-probe", "ports", "stateless",
		"carrier", "ablations", "differential", "deploy", "dns-retries", "order",
	}
)

// impairmentFlags turns the robustness flags into the sweep's non-loss
// profile and its loss ladder (nil when -loss is left at its -1 "unset"
// sentinel). Each flag is checked on its own by netsim.Profile.Validate,
// the check every other entry point applies, so the error names the flag.
func impairmentFlags(loss, dup, reorder float64, jitter time.Duration) (netsim.Profile, []float64, error) {
	var ladder []float64
	if loss == -1 {
		loss = 0
	} else {
		ladder = []float64{loss}
	}
	for _, f := range []struct {
		name string
		p    netsim.Profile
	}{
		{"-loss", netsim.Profile{Loss: loss}},
		{"-dup", netsim.Profile{Duplicate: dup}},
		{"-reorder", netsim.Profile{Reorder: reorder}},
		{"-jitter", netsim.Profile{Jitter: jitter}},
	} {
		if err := f.p.Validate(); err != nil {
			return netsim.Profile{}, nil, fmt.Errorf("impairment flag %s: %w", f.name, err)
		}
	}
	return netsim.Profile{Duplicate: dup, Reorder: reorder, Jitter: jitter}, ladder, nil
}

func header(w io.Writer, s string) { fmt.Fprintf(w, "\n=== %s ===\n\n", s) }

// runTable prints one of tables.
func runTable(w io.Writer, which string, trials int) {
	switch which {
	case "1":
		header(w, "Table 1: client locations and protocols")
		table1(w)
	case "2":
		header(w, fmt.Sprintf("Table 2: strategy success rates (%d trials/cell)", trials))
		fmt.Fprint(w, eval.FormatTable2(eval.Table2(trials)))
		fmt.Fprintf(w, "\n(95%% sampling error at %d trials: up to \u00b1%.0f points per cell)\n",
			trials, 100*eval.MaxSamplingError(trials))
	case "compat":
		header(w, "Section 7: client compatibility matrix")
		fmt.Fprint(w, eval.FormatCompat(eval.ClientCompatibility()))
	}
}

// table1Vantage is presentation flavor only (the simulator's vantage points
// are uniform); the row set itself comes from the censor registry, so a
// newly registered censor appears here with a "(simulated)" placeholder
// until someone names its vantage.
var table1Vantage = map[string]string{
	eval.CountryChina:         "Beijing, Shanghai, ...",
	eval.CountryIndia:         "Bangalore (Airtel)",
	eval.CountryIndiaJio:      "Mumbai (Jio)",
	eval.CountryIndiaVodafone: "Delhi (Vodafone)",
	eval.CountryIran:          "Tehran, Zanjan",
	eval.CountryKazakhstan:    "Qaraghandy, Almaty",
	eval.CountryTurkmenistan:  "Ashgabat (TMC)",
}

func table1(w io.Writer) {
	fmt.Fprintf(w, "%-16s %-28s %s\n", "Country", "Vantage points (simulated)", "Protocols censored")
	for _, d := range eval.Registry() {
		vantage, ok := table1Vantage[d.Country]
		if !ok {
			vantage = "(simulated)"
		}
		protos := make([]string, len(d.Protocols))
		for i, p := range d.Protocols {
			protos[i] = strings.ToUpper(p)
		}
		name := strings.ToUpper(d.Country[:1]) + d.Country[1:]
		fmt.Fprintf(w, "%-16s %-28s %s\n", name, vantage, strings.Join(protos, ", "))
	}
	fmt.Fprintln(w, "(The simulator models the censor per country; vantage points are uniform.)")
}

// runFigure prints one of figures.
func runFigure(w io.Writer, which string, trials int) {
	switch which {
	case "1":
		header(w, "Figure 1: server-side evasion waterfalls (China)")
		fmt.Fprint(w, eval.Figure1())
	case "2":
		header(w, "Figure 2: server-side evasion waterfalls (Kazakhstan)")
		fmt.Fprint(w, eval.Figure2())
	case "3":
		header(w, "Figure 3: multiple censorship boxes")
		fmt.Fprint(w, eval.FormatFigure3(eval.Figure3(trials/2)))
	}
}

// runExperiment prints one of allExperiments, robustness, or all of
// allExperiments for "all".
func runExperiment(w io.Writer, which string, trials int) {
	run := func(name string) {
		switch name {
		case "client-side":
			header(w, "§3: client-side strategies do not generalize")
			rates := eval.ClientSideGeneralization(trials / 4)
			names := sortedKeys(rates)
			worst := 0.0
			for _, n := range names {
				if rates[n] > worst {
					worst = rates[n]
				}
			}
			fmt.Fprintf(w, "%d server-side analogs evaluated; best success rate: %.0f%% (baseline ~3%%)\n",
				len(rates), 100*worst)
			for _, n := range names {
				fmt.Fprintf(w, "  %-44s %4.0f%%\n", n, 100*rates[n])
			}
			fmt.Fprintf(w, "\nContrast — the same teardown run CLIENT-side evades at %.0f%%\n",
				100*eval.ClientSideTCBTeardownWorks(trials/4))
		case "desync":
			header(w, "§5.1: desynchronization confirmation (seq-1)")
			with, wo := eval.DesyncConfirmation(trials / 2)
			fmt.Fprintf(w, "censorship of seq-1 request WITH Strategy 1:    %.0f%% (paper: ~50%%)\n", 100*with)
			fmt.Fprintf(w, "censorship of seq-1 request WITHOUT strategy:   %.0f%% (paper: never)\n", 100*wo)
		case "induced-rst":
			header(w, "§5.1: induced-RST criticality (FTP)")
			s5n, s5d, s6n, s6d := eval.InducedRstCriticality(trials / 2)
			fmt.Fprintf(w, "Strategy 5: normal %.0f%%, client drops its RST %.0f%%  (RST critical)\n", 100*s5n, 100*s5d)
			fmt.Fprintf(w, "Strategy 6: normal %.0f%%, client drops its RST %.0f%%  (RST vestigial)\n", 100*s6n, 100*s6d)
		case "s7-resync":
			header(w, "§5.1: Strategy 7 re-syncs on the induced RST")
			fmt.Fprintf(w, "censorship with client seq matched to the RST: %.0f%% (the GFW re-censors)\n",
				100*eval.Strategy7ResyncTarget(trials/2))
		case "residual":
			header(w, "§4.2: residual censorship")
			for _, r := range eval.ResidualCensorshipExperiment() {
				fmt.Fprintf(w, "%-6s immediate benign follow-up blocked: %-5v recovered after 95s: %v\n",
					r.Protocol, r.ImmediateBlocked, r.AfterWindowOK)
			}
		case "kz-triple":
			header(w, "§5.3: Kazakhstan Triple Load sweep")
			s := eval.KazakhTripleLoadSweep(10)
			fmt.Fprintf(w, "1 load: %.0f%%  2 loads: %.0f%%  3 loads: %.0f%%  4 loads: %.0f%%\n",
				100*s.OneLoad, 100*s.TwoLoads, 100*s.ThreeLoads, 100*s.FourLoads)
			fmt.Fprintf(w, "load,empty,load: %.0f%% (back-to-back required)\n", 100*s.TwoLoadsPlusEmptyBetween)
			fmt.Fprintf(w, "1-byte payloads: %.0f%%  400-byte payloads: %.0f%% (size irrelevant)\n",
				100*s.OneByte, 100*s.Large)
		case "kz-get":
			header(w, "§5.3: Kazakhstan Double GET sweep")
			s := eval.KazakhDoubleGetSweep(10)
			fmt.Fprintf(w, "\"GET / HTTP1.\" x2: %.0f%%   without the '.': %.0f%%\n", 100*s.FullPrefix, 100*s.Truncated)
			fmt.Fprintf(w, "single GET: %.0f%%   longer well-formed GET x2: %.0f%%\n", 100*s.SingleGet, 100*s.LongerPath)
		case "kz-flags":
			header(w, "§5.3: Kazakhstan flag sweep (Null Flags)")
			rates := eval.KazakhFlagSweep(8)
			for _, k := range sortedKeys(rates) {
				fmt.Fprintf(w, "  flags %-7s %4.0f%%\n", k, 100*rates[k])
			}
		case "kz-probe":
			header(w, "§5.3: Kazakhstan probing (the second request is processed)")
			two, fb := eval.KazakhProbing()
			fmt.Fprintf(w, "two forbidden GETs during handshake elicit a response: %v\n", two)
			fmt.Fprintf(w, "forbidden-then-benign elicits a response:             %v\n", fb)
		case "ports":
			header(w, "§5.2: default-port sensitivity")
			printBoolMap(w, eval.PortSensitivity(), "non-default port defeats censorship")
		case "stateless":
			header(w, "§5.2: state tracking")
			printBoolMap(w, eval.Statelessness(), "censors with no handshake at all")
		case "dns-retries":
			header(w, "§4.2: DNS retry amplification (RFC 7766)")
			curve := eval.DNSRetryCurve(1, 5, trials/2)
			fmt.Fprintln(w, "Strategy 1 DNS success by client retry budget:")
			for k := 1; k <= 5; k++ {
				note := ""
				switch k {
				case 1:
					note = "(dig, single try)"
				case 3:
					note = "(Python dns lib; the paper's test setting)"
				case 5:
					note = "(Chrome: 1 + 4 retries)"
				}
				fmt.Fprintf(w, "  %d tries: %3.0f%%  %s\n", k, 100*curve[k], note)
			}
		case "order":
			header(w, "§5.1: Strategy 5 packet-order sensitivity (FTP)")
			normal, reversed := eval.OrderSensitivity(trials / 2)
			fmt.Fprintf(w, "corrupt-ack first, payload second: %3.0f%% (the published strategy)\n", 100*normal)
			fmt.Fprintf(w, "payload first, corrupt-ack second: %3.0f%% (paper: ineffective)\n", 100*reversed)
		case "deploy":
			header(w, "§8: one router, per-client strategies from the SYN alone")
			got := eval.RouterDeployment(trials / 4)
			for _, c := range eval.Countries() {
				label := c
				if label == "" {
					label = "(uncensored)"
				}
				fmt.Fprintf(w, "  %-12s routed-strategy success: %3.0f%%\n", label, 100*got[c])
			}
		case "ablations":
			header(w, "Model ablations: every DESIGN.md mechanism is load-bearing")
			for _, a := range eval.Ablations(trials / 2) {
				kind := "censor bug"
				if !a.AidsEvasion {
					kind = "censor capability"
				}
				fmt.Fprintf(w, "%-42s (S%d/%s, %s): with %3.0f%%  without %3.0f%%\n    %s\n",
					a.Name, a.Strategy, a.Protocol, kind,
					100*a.WithMechanism, 100*a.WithoutMechanism, a.Explanation)
			}
			multi, single := eval.SingleBoxAblation(trials / 2)
			fmt.Fprintln(w, "\nSingle-box counterfactual (Strategy 5 per protocol):")
			for _, p := range eval.ChinaProtocols {
				fmt.Fprintf(w, "  %-6s multi-box %3.0f%%   single shared box %3.0f%%\n",
					p, 100*multi[p], 100*single[p])
			}
			fmt.Fprintln(w, "\nResync-rule knockouts (success per strategy):")
			dep := eval.StrategyRuleDependence(trials / 2)
			fmt.Fprintf(w, "  %-10s %8s %9s %9s %9s\n", "strategy", "full", "no-rule1", "no-rule2", "no-rule3")
			for _, n := range []int{1, 2, 3, 5, 6, 7} {
				r := dep[n]
				fmt.Fprintf(w, "  S%-9d %7.0f%% %8.0f%% %8.0f%% %8.0f%%\n",
					n, 100*r["full"], 100*r["no-rule1"], 100*r["no-rule2"], 100*r["no-rule3"])
			}
		case "differential":
			header(w, "Cross-censor differential failure-cause matrix")
			fmt.Fprint(w, eval.FormatDifferential(eval.Differential()))
			fmt.Fprintln(w, "\n(one traced trial per cell; causes classified from packet evidence —")
			fmt.Fprintln(w, " the golden copy lives in internal/eval/testdata/differential.txt)")
		case "robustness":
			runRobustness(w, netsim.Profile{}, nil, trials)
		case "carrier":
			header(w, "§7: cellular-middlebox interference (anecdote)")
			got := eval.CarrierInterference()
			for _, carrier := range []string{"wifi", "tmobile", "att"} {
				var broken []int
				for n := 1; n <= 11; n++ {
					if !got[carrier][n] {
						broken = append(broken, n)
					}
				}
				if len(broken) == 0 {
					fmt.Fprintf(w, "  %-8s all strategies work\n", carrier)
				} else {
					fmt.Fprintf(w, "  %-8s broken strategies: %v\n", carrier, broken)
				}
			}
		}
	}
	if which == "all" {
		for _, n := range allExperiments {
			run(n)
		}
		return
	}
	run(which)
}

// runRobustness sweeps evasion rate vs. loss rate for every strategy against
// every censor. base carries the non-loss impairments; ladder is the loss
// rates to climb (nil = eval.DefaultLossRates).
func runRobustness(w io.Writer, base netsim.Profile, ladder []float64, trials int) {
	per := trials / 2
	if per < 1 {
		per = 1
	}
	extra := ""
	if base.Duplicate > 0 || base.Reorder > 0 || base.Jitter > 0 {
		extra = fmt.Sprintf(" (dup %.0f%%, reorder %.0f%%, jitter %v)",
			100*base.Duplicate, 100*base.Reorder, base.Jitter)
	}
	header(w, fmt.Sprintf("Robustness: evasion rate vs. packet loss%s (%d trials/cell)", extra, per))
	fmt.Fprint(w, eval.FormatRobustness(eval.Robustness(base, ladder, per)))
}

// printBoolMap prints a country->bool map in key order.
func printBoolMap(w io.Writer, m map[string]bool, label string) {
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(w, "  %-12s %s: %v\n", k, label, m[k])
	}
}

// sortedKeys returns m's keys in order, so printed maps are deterministic.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
