// Command geneva runs the reproduction: the paper's tables, figures and
// follow-up experiments, the §8 deployment fleet, the §4.1 genetic search,
// and an interactive strategy explorer, one subcommand each.
//
// Usage:
//
//	geneva evaluate [flags]   reproduce the tables, figures and experiments
//	geneva fleet [flags]      run the deployment-scale serving harness
//	geneva evolve [flags]     train strategies against a simulated censor
//	geneva explore [flags]    type strategies, see waterfalls and rates
//
// `geneva <command> -h` lists a command's flags. Every input is checked
// before anything runs: a bad command line exits 2, a failed run exits 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// A command declares its flags on the set it is given and returns the body
// to run once they are parsed.
type command struct {
	name, summary string
	setup         func(fs *flag.FlagSet) func(in io.Reader, out io.Writer) error
}

var commands = []command{
	{"evaluate", "reproduce the tables, figures and experiments", evaluateCmd},
	{"fleet", "run the deployment-scale serving harness", fleetCmd},
	{"evolve", "train strategies against a simulated censor", evolveCmd},
	{"explore", "type strategies, see waterfalls and rates", exploreCmd},
}

// usageError marks a bad command line: run exits 2 for it, 1 for any other
// error.
type usageError struct{ error }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run executes one command line and returns the process exit status.
func run(args []string, in io.Reader, out, errOut io.Writer) int {
	if len(args) == 0 {
		printUsage(errOut)
		return 2
	}
	var cmd *command
	for i := range commands {
		if commands[i].name == args[0] {
			cmd = &commands[i]
			break
		}
	}
	if cmd == nil {
		fmt.Fprintf(errOut, "geneva: unknown command %q\n", args[0])
		printUsage(errOut)
		return 2
	}
	fs := flag.NewFlagSet("geneva "+cmd.name, flag.ContinueOnError)
	fs.SetOutput(errOut)
	body := cmd.setup(fs)
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2 // the flag package has reported it
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(errOut, "geneva: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	err := body(in, out)
	if err == nil {
		return 0
	}
	fmt.Fprintln(errOut, "geneva:", err)
	if errors.As(err, new(usageError)) {
		return 2
	}
	return 1
}

func printUsage(w io.Writer) {
	fmt.Fprintln(w, "usage: geneva <command> [flags]")
	for _, c := range commands {
		fmt.Fprintf(w, "  %-9s %s\n", c.name, c.summary)
	}
	fmt.Fprintln(w, "Run 'geneva <command> -h' for a command's flags.")
}
