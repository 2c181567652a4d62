package main

import (
	"strings"
	"testing"
)

func TestReplEvaluatesStrategies(t *testing.T) {
	in := strings.NewReader(
		"# a comment\n" +
			"strategies\n" +
			`[TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:},)-| \/ ` + "\n" +
			"[broken\n" +
			"\n")
	var out strings.Builder
	repl(in, &out, "kazakhstan", "http", 10)
	got := out.String()
	for _, want := range []string{
		"Null Flags",                       // the library listing
		"success rate over 10 trials: 100", // Strategy 11 vs Kazakhstan
		"evaded censorship",
		"parse error",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("repl output missing %q\n%s", want, got)
		}
	}
}

func TestReplEOF(t *testing.T) {
	var out strings.Builder
	repl(strings.NewReader(""), &out, "china", "http", 1)
	if !strings.Contains(out.String(), "geneva>") {
		t.Error("no prompt printed")
	}
}
