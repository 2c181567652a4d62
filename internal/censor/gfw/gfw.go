package gfw

import (
	"math/rand"
	"net/netip"
	"strings"
	"time"

	"geneva/internal/netsim"
	"geneva/internal/packet"
)

// GFW is the composite Great Firewall: five per-protocol boxes colocated at
// one hop (§6, Figure 3b). Every box sees every packet — the GFW cannot
// know the application protocol during the handshake, so all processing
// engines track all flows — but only the box whose protocol matcher fires
// ever censors, and no box fails closed.
type GFW struct {
	Boxes []*Box
}

// New builds the GFW with the calibrated China parameters. All boxes share
// one RNG stream so a trial is reproducible from a single seed.
func New(rng *rand.Rand) *GFW {
	g := &GFW{Boxes: make([]*Box, 0, len(chinaParams))}
	for _, p := range ChinaParams() {
		g.Boxes = append(g.Boxes, NewBox(p, rng))
	}
	return g
}

// Name implements netsim.Middlebox.
func (g *GFW) Name() string { return "GFW" }

// Box returns the box for the named protocol, or nil.
func (g *GFW) Box(protocol string) *Box {
	for _, b := range g.Boxes {
		if b.P.Protocol == protocol {
			return b
		}
	}
	return nil
}

// CensorshipEvents sums censorship events across all boxes.
func (g *GFW) CensorshipEvents() int {
	n := 0
	for _, b := range g.Boxes {
		n += b.Censored
	}
	return n
}

// Process implements netsim.Middlebox by fanning the packet out to every
// box and merging their verdicts. The GFW is on-path: it can inject but
// never drop.
func (g *GFW) Process(pkt *packet.Packet, dir netsim.Direction, now time.Duration) netsim.Verdict {
	var out netsim.Verdict
	var notes []string
	// One canonical-key computation for all five boxes; the boxes also
	// share the packet's memoized app view, so the payload is parsed at
	// most once no matter how many boxes inspect it.
	key := pkt.Flow().Canonical()
	for _, b := range g.Boxes {
		v := b.processKeyed(key, pkt, dir, now)
		out.InjectToClient = append(out.InjectToClient, v.InjectToClient...)
		out.InjectToServer = append(out.InjectToServer, v.InjectToServer...)
		if v.Note != "" {
			notes = append(notes, b.P.Protocol+" box: "+v.Note)
		}
	}
	out.Note = strings.Join(notes, "; ")
	return out
}

// CensoredCount returns the number of censorship events across all boxes
// (eval harness interface).
func (g *GFW) CensoredCount() int { return g.CensorshipEvents() }

// ExportResidual implements censor.ResidualCarrier by fanning out to every
// box; only boxes whose parameters carry residual censorship (HTTP) have
// windows to report.
func (g *GFW) ExportResidual(now time.Duration, emit func(server netip.AddrPort, remaining time.Duration)) {
	for _, b := range g.Boxes {
		b.ExportResidual(now, emit)
	}
}

// SeedResidual implements censor.ResidualCarrier; boxes without residual
// censorship ignore the seed.
func (g *GFW) SeedResidual(server netip.AddrPort, expiry time.Duration) {
	for _, b := range g.Boxes {
		b.SeedResidual(server, expiry)
	}
}
