package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"strings"

	"geneva/internal/core"
	"geneva/internal/eval"
	"geneva/internal/strategies"
)

// exploreCmd is an interactive strategy explorer: type Geneva programs and
// see, immediately, the packet waterfall and the success rate against a
// chosen censor.
//
//	geneva explore [-country china] [-protocol http] [-trials 100]
//
// Then enter one strategy per line (blank line or EOF to exit). Lines
// starting with '#' are comments; the special input "strategies" lists the
// paper's library.
func exploreCmd(fs *flag.FlagSet) func(io.Reader, io.Writer) error {
	country := fs.String("country", "china", "censor to explore against")
	protocol := fs.String("protocol", "http", "protocol to trigger censorship with")
	trials := fs.Int("trials", 100, "trials per rate estimate")
	return func(in io.Reader, out io.Writer) error {
		if err := eval.CheckCountryProtocol(*country, *protocol); err != nil {
			return usageError{err}
		}
		fmt.Fprintf(out, "Exploring %s / %s. Enter a Geneva strategy per line (blank to quit).\n",
			*country, *protocol)
		repl(in, out, *country, *protocol, *trials)
		return nil
	}
}

// repl drives the explorer; split out so tests can feed it input.
func repl(in io.Reader, out io.Writer, country, protocol string, trials int) {
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Fprint(out, "geneva> ")
		if !scanner.Scan() {
			fmt.Fprintln(out)
			return
		}
		line := strings.TrimSpace(scanner.Text())
		switch {
		case line == "":
			return
		case strings.HasPrefix(line, "#"):
			continue
		case line == "strategies":
			for _, s := range strategies.All() {
				fmt.Fprintf(out, "  %2d %-34s %s\n", s.Number, s.Name, s.DSL)
			}
			continue
		}
		evaluate(out, line, country, protocol, trials)
	}
}

func evaluate(out io.Writer, dsl, country, protocol string, trials int) {
	s, err := core.Parse(dsl)
	if err != nil {
		fmt.Fprintf(out, "  parse error: %v\n", err)
		return
	}
	cfg := eval.TrialConfig(country, protocol, s, 1)
	cfg.WithTrace = true
	rate := eval.Rate(cfg, trials)
	fmt.Fprintf(out, "  success rate over %d trials: %.0f%%\n\n", trials, 100*rate)
	// Show a waterfall of a successful run if one exists, else of a failure.
	cfg.Seed = eval.EvadingSeed(country, protocol, s)
	res := eval.Run(cfg)
	fmt.Fprint(out, res.Trace.Waterfall("  sample run"))
	if res.Success {
		fmt.Fprintln(out, "  => evaded censorship")
	} else {
		fmt.Fprintln(out, "  => censored / failed")
	}
}
