package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"geneva/internal/netsim"
)

// TestImpairmentFlags: the robustness flags go through
// netsim.Profile.Validate, so NaN is rejected like any other value outside
// [0,1], the error names the offending flag, and -loss keeps its -1
// "unset" sentinel.
func TestImpairmentFlags(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		loss, dup, reorder float64
		jitter             time.Duration
		flag               string // "" = accepted
	}{
		{-1, 0, 0, 0, ""},
		{0.02, 0.01, 0.05, 3 * time.Millisecond, ""},
		{nan, 0, 0, 0, "-loss"},
		{-1, nan, 0, 0, "-dup"},
		{-1, 0, nan, 0, "-reorder"},
		{-0.5, 0, 0, 0, "-loss"},
		{1.5, 0, 0, 0, "-loss"},
		{-1, 2, 0, 0, "-dup"},
		{-1, 0, -0.1, 0, "-reorder"},
		{-1, 0, 0, -time.Millisecond, "-jitter"},
	} {
		base, ladder, err := impairmentFlags(c.loss, c.dup, c.reorder, c.jitter)
		if c.flag != "" {
			if err == nil || !strings.Contains(err.Error(), c.flag+":") {
				t.Errorf("loss=%v dup=%v reorder=%v jitter=%v: err = %v, want one naming %s",
					c.loss, c.dup, c.reorder, c.jitter, err, c.flag)
			}
			continue
		}
		if err != nil {
			t.Errorf("loss=%v dup=%v reorder=%v jitter=%v: unexpected error %v", c.loss, c.dup, c.reorder, c.jitter, err)
			continue
		}
		if want := (netsim.Profile{Duplicate: c.dup, Reorder: c.reorder, Jitter: c.jitter}); base != want {
			t.Errorf("base = %+v, want %+v", base, want)
		}
		if (c.loss == -1) != (ladder == nil) || (ladder != nil && ladder[0] != c.loss) {
			t.Errorf("loss=%v: ladder = %v", c.loss, ladder)
		}
	}
}
