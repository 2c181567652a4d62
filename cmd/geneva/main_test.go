package main

import (
	"os"
	"strings"
	"testing"
)

// runCmd runs one command line in-process and returns its exit status,
// stdout and stderr.
func runCmd(args ...string) (int, string, string) {
	var out, errOut strings.Builder
	code := run(args, strings.NewReader(""), &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestDispatchExitCodes(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
	}{
		{nil, 2},
		{[]string{"nosuch"}, 2},
		{[]string{"evaluate", "-nosuch"}, 2},
		{[]string{"evaluate", "-h"}, 0},
		{[]string{"evaluate", "-table", "1", "stray"}, 2},
		{[]string{"explore"}, 0},
	} {
		if code, _, errOut := runCmd(c.args...); code != c.code {
			t.Errorf("geneva %q exited %d, want %d\n%s", c.args, code, c.code, errOut)
		}
	}
}

// TestBadInputRunsNothing: every malformed command line is rejected before
// anything runs. It exits 2 with an error naming the bad value and prints
// nothing to stdout.
func TestBadInputRunsNothing(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"explore", "-country", "nosuch"}, "unknown country"},
		{[]string{"explore", "-protocol", "gopher"}, "unknown protocol"},
		{[]string{"evaluate", "-table", "1", "-figure", "9"}, `unknown figure "9"`},
		{[]string{"evaluate", "-figure", "1", "-table", "9"}, `unknown table "9"`},
		{[]string{"evaluate", "-table", "1", "-experiment", "nosuch"}, `unknown experiment "nosuch"`},
		{[]string{"evaluate", "-table", "1", "-dup", "NaN"}, "-dup:"},
		{[]string{"fleet", "-connections", "20", "-loss", "NaN"}, "-loss:"},
		{[]string{"fleet", "-connections", "20", "-dup", "2"}, "-dup:"},
		{[]string{"fleet", "-connections", "20", "-reorder", "-0.5"}, "-reorder:"},
		{[]string{"fleet", "-connections", "20", "-jitter", "-1ms"}, "-jitter:"},
		{[]string{"fleet", "-connections", "20", "-portfolio", "12"}, "no paper strategy 12"},
		{[]string{"fleet", "-connections", "20", "-shift-params", "prst"}, "want name=value"},
		{[]string{"evolve", "-country", "nosuch"}, "unknown country"},
		{[]string{"evolve", "-protocol", "gopher"}, "unknown protocol"},
	} {
		code, out, errOut := runCmd(c.args...)
		if code != 2 || out != "" || !strings.Contains(errOut, c.want) {
			t.Errorf("geneva %q: exit %d, stdout %q, stderr %q; want exit 2, no stdout, an error containing %q",
				c.args, code, out, errOut, c.want)
		}
	}
}

// TestFleetRunErrorExitsOne: a Deployment the fleet rejects is a run error
// (exit 1), reported with the fleet's own prefix once.
func TestFleetRunErrorExitsOne(t *testing.T) {
	code, out, errOut := runCmd("fleet", "-countries", "narnia", "-connections", "20")
	if code != 1 || out != "" {
		t.Errorf("exit %d, stdout %q; want exit 1 and no stdout", code, out)
	}
	if !strings.Contains(errOut, "fleet: unknown country") || strings.Contains(errOut, "fleet: fleet:") {
		t.Errorf("stderr = %q, want one fleet: prefix on the unknown-country error", errOut)
	}
}

// TestSubcommandsSmoke runs each experiment subcommand once at a tiny size.
func TestSubcommandsSmoke(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"evaluate", "-table", "1"}, "Table 1: client locations"},
		{[]string{"fleet", "-connections", "20", "-countries", "china", "-metrics"}, "--- metrics ---"},
		{[]string{"evolve", "-country", "kazakhstan", "-population", "6", "-generations", "2", "-trials", "2"}, "Confirmed success rate"},
	} {
		code, out, errOut := runCmd(c.args...)
		if code != 0 || !strings.Contains(out, c.want) {
			t.Errorf("geneva %q: exit %d, stdout missing %q\nstdout:\n%s\nstderr:\n%s", c.args, code, c.want, out, errOut)
		}
	}
}

// TestResultsGolden pins all of docs/RESULTS.txt: the full evaluation at
// 300 trials must reproduce it line for line, apart from the closing
// wall-clock footer.
func TestResultsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full 300-trial evaluation")
	}
	raw, err := os.ReadFile("../../docs/RESULTS.txt")
	if err != nil {
		t.Fatal(err)
	}
	code, got, errOut := runCmd("evaluate", "-trials", "300")
	if code != 0 {
		t.Fatalf("evaluate exited %d: %s", code, errOut)
	}
	i := strings.LastIndex(got, "\n[workers=")
	if i < 0 {
		t.Fatalf("evaluate output lost its [workers=... wall=...] footer:\n%s", got)
	}
	got = got[:i]
	gl, wl := strings.Split(got, "\n"), strings.Split(string(raw), "\n")
	for k := 0; k < len(gl) || k < len(wl); k++ {
		var g, w string
		if k < len(gl) {
			g = gl[k]
		}
		if k < len(wl) {
			w = wl[k]
		}
		if g != w {
			t.Fatalf("docs/RESULTS.txt line %d:\n  got  %q\n  want %q", k+1, g, w)
		}
	}
}
