package netsim

import (
	"fmt"
	"math/rand"
	"time"

	"geneva/internal/lazyrand"
)

// Profile describes the impairment of the path; both directions are
// degraded alike. All probabilities are per-packet in [0, 1]. The zero
// value is a perfect link: it disables the layer entirely, no randomness is
// consumed, and delivery is byte-identical to a network that never heard
// of impairments.
type Profile struct {
	// Loss is the probability a packet is silently dropped in transit.
	Loss float64
	// Duplicate is the probability a packet is delivered twice (the copy
	// takes its own independently jittered path).
	Duplicate float64
	// Reorder is the probability a packet is held back long enough for a
	// later packet in the same direction to overtake it.
	Reorder float64
	// Jitter adds a uniform random extra latency in [0, Jitter] to every
	// packet. Values below the inter-packet spacing delay without
	// reordering; larger values reorder too.
	Jitter time.Duration
}

// Validate rejects a profile no link can have: a Loss, Duplicate or Reorder
// probability outside [0,1] (NaN included) or a negative Jitter. The error
// names the field, so callers prefix it with the profile's own path
// ("Impairments.Loss ...").
func (p Profile) Validate() error {
	for i, v := range []float64{p.Loss, p.Duplicate, p.Reorder} {
		if !(v >= 0 && v <= 1) { // NaN fails too
			return fmt.Errorf("%s %g is not a probability in [0,1]", [...]string{"Loss", "Duplicate", "Reorder"}[i], v)
		}
	}
	if p.Jitter < 0 {
		return fmt.Errorf("Jitter %v is negative", p.Jitter)
	}
	return nil
}

// Enabled reports whether any impairment is active.
func (p Profile) Enabled() bool {
	return p.Loss > 0 || p.Duplicate > 0 || p.Reorder > 0 || p.Jitter > 0
}

// SetImpairments installs the impairment layer. The rng is the sole source
// of randomness — two networks configured with equal profiles and
// equally-seeded rngs impair identically. A nil rng with active impairments
// falls back to a fixed seed so behaviour stays reproducible.
func (n *Network) SetImpairments(p Profile, rng *rand.Rand) {
	if rng == nil && p.Enabled() {
		rng = lazyrand.New(0)
	}
	n.impair = p
	n.impairRNG = rng
}

// impairExtra draws the extra latency for one packet copy: a reordering
// hold-back (long enough that the next packet overtakes) plus jitter. The
// draw order is fixed — reorder, then jitter — so a given rng stream always
// maps to the same impairment schedule.
func (n *Network) impairExtra() time.Duration {
	p := n.impair
	var extra time.Duration
	if p.Reorder > 0 && n.impairRNG.Float64() < p.Reorder {
		mReordered.Inc()
		extra += n.LinkDelay + time.Duration(n.impairRNG.Int63n(int64(n.LinkDelay)+1))
	}
	if p.Jitter > 0 {
		extra += time.Duration(n.impairRNG.Int63n(int64(p.Jitter) + 1))
	}
	return extra
}
