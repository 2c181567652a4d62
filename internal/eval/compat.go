package eval

import (
	"fmt"
	"strings"

	"geneva/internal/strategies"
	"geneva/internal/tcpstack"
)

// CompatCell is one (strategy, client OS) outcome on the §7 private network
// — no censor; the question is whether the strategy breaks the client.
type CompatCell struct {
	Strategy string
	OS       string
	Works    bool
}

// ClientCompatibility reproduces §7: every strategy against every client
// personality, over HTTP on a censor-free network, plus the three
// checksum-insertion variants that repair Strategies 5, 9 and 10 for
// Windows and macOS.
func ClientCompatibility() []CompatCell {
	var cells []CompatCell
	var all []strategies.Strategy
	all = append(all, strategies.All()...)
	for _, s := range strategies.All() {
		if v, ok := strategies.InsertionVariant(s); ok {
			all = append(all, v)
		}
	}
	for _, s := range all {
		for _, os := range tcpstack.AllPersonalities {
			cfg := TrialConfig(CountryNone, "http", s.Parse(), int64(len(cells)))
			cfg.ClientOS = os
			cells = append(cells, CompatCell{
				Strategy: s.Name,
				OS:       os.Name,
				Works:    Run(cfg).Success,
			})
		}
	}
	return cells
}

// FormatCompat renders the §7 matrix, one row per strategy.
func FormatCompat(cells []CompatCell) string {
	byStrategy := map[string][]CompatCell{}
	var order []string
	for _, c := range cells {
		if _, seen := byStrategy[c.Strategy]; !seen {
			order = append(order, c.Strategy)
		}
		byStrategy[c.Strategy] = append(byStrategy[c.Strategy], c)
	}
	var b strings.Builder
	b.WriteString("Client compatibility (§7): ✓ = connection works, ✗ = broken client\n\n")
	for _, name := range order {
		var fails []string
		for _, c := range byStrategy[name] {
			if !c.Works {
				fails = append(fails, c.OS)
			}
		}
		if len(fails) == 0 {
			fmt.Fprintf(&b, "%-48s all %d client OSes ✓\n", name, len(byStrategy[name]))
		} else {
			fmt.Fprintf(&b, "%-48s fails on: %s\n", name, strings.Join(fails, ", "))
		}
	}
	return b.String()
}
