package censor

import (
	"testing"
	"time"
)

// TestWindows pins the table's contract: windows include their expiry,
// Open overwrites and sweeps what has expired, Extend and Seed only ever
// grow a window, Seed never sweeps, and Export skips expired entries.
func TestWindows(t *testing.T) {
	var w Windows[string]
	if w.Live("a", 0) || w.Len() != 0 {
		t.Fatal("zero table is not empty")
	}
	w.Open("a", 0, 10)
	if !w.Live("a", 10) || w.Live("a", 11) {
		t.Error("window must cover its expiry and nothing past it")
	}
	if w.Len() != 0 {
		t.Error("expired entry survived its lookup")
	}

	w.Open("a", 0, 100)
	w.Open("a", 0, 50) // overwrite: shortens
	if w.Live("a", 51) {
		t.Error("Open did not replace the longer window")
	}
	w.Extend("b", 0, 100)
	w.Extend("b", 0, 50) // max-merge: keeps 100
	w.Seed("b", 60)
	if !w.Live("b", 100) {
		t.Error("Extend or Seed shortened a window")
	}

	w.Seed("c", 5)
	w.Seed("d", 7)
	w.Seed("e", 200) // seeding sweeps nothing
	if w.Len() != 4 {
		t.Fatalf("Len = %d, want 4 (b, c, d, e)", w.Len())
	}
	got := map[string]time.Duration{}
	w.Export(6, func(k string, remaining time.Duration) { got[k] = remaining })
	if len(got) != 3 || got["b"] != 94 || got["d"] != 1 || got["e"] != 194 {
		t.Errorf("Export at 6 = %v, want b:94 d:1 e:194", got)
	}
	if swept := w.Open("f", 150, 160); swept != 3 || w.Len() != 2 {
		t.Errorf("Open at 150 swept %d, left %d; want 3 swept (b, c, d), 2 left", swept, w.Len())
	}
}
