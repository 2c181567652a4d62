// Package tmc models Turkmenistan's national censor (the TMC). Nourin et
// al. ("Measuring and Evading Turkmenistan's Internet Censorship", WWW
// 2023 — see PAPERS.md) document a censor that is unusual on two axes the
// other models in this repo never exercise:
//
//   - It is *bidirectional*: the DPI engines match triggers in both
//     directions and react to server-to-client traffic, not just client
//     requests. A forbidden trigger seen in either direction elicits
//     injection toward both endpoints.
//   - Its tear-down is *two-sided*: HTTP Host and TLS SNI matches inject
//     RST+ACK toward the client and the server simultaneously, and DNS
//     queries for forbidden names are answered with a forged response
//     carrying a bogus address, injected back toward whichever side sent
//     the query.
//
// Like India's ISPs the TMC is stateless single-packet DPI — it keeps no
// TCB, never reassembles (client segmentation defeats every engine), and
// matches only on the protocol's default port. Its one piece of
// cross-connection state is residual censorship: after an HTTP/HTTPS
// tear-down the server endpoint stays tainted for a window, and any new
// connection to it is torn down on the first ACK-bearing client packet.
// That state rides the fleet's residual ledger via censor.ResidualCarrier,
// the same seam the GFW's poisoned windows use.
package tmc

import (
	"net/netip"
	"time"

	"geneva/internal/apps"
	"geneva/internal/censor"
	"geneva/internal/netsim"
	"geneva/internal/packet"
)

// ResidualWindow is how long a server endpoint stays tainted after an
// HTTP/HTTPS tear-down. Nourin et al. measure multi-minute blocking of the
// server IP; one minute keeps the fleet's default inter-wave gap (120 s)
// outside the window so routed cells stay deterministic.
const ResidualWindow = time.Minute

// bogusAddr is the address the TMC's forged DNS responses resolve
// forbidden names to (the loopback answer Nourin et al. observe).
var bogusAddr = [4]byte{127, 0, 0, 1}

// TMC is the Turkmenistan censor middlebox.
type TMC struct {
	// Censored counts censorship events.
	Censored int

	// residual holds each tainted server ip:port's residual window (only
	// HTTP/HTTPS tear-downs open one).
	residual censor.Windows[netip.AddrPort]
}

// New builds the TMC (deterministic: it draws no randomness).
func New() *TMC {
	return &TMC{}
}

// Name implements netsim.Middlebox.
func (c *TMC) Name() string { return "TMC" }

// CensoredCount returns the number of censorship events (eval harness
// interface).
func (c *TMC) CensoredCount() int { return c.Censored }

// servicePort returns the well-known port of the packet's flow (the DPI
// engine keyed by it), or 0 if neither endpoint is on a modeled port.
func servicePort(pkt *packet.Packet) uint16 {
	for _, p := range [...]uint16{53, 80, 443} {
		if pkt.TCP.DstPort == p || pkt.TCP.SrcPort == p {
			return p
		}
	}
	return 0
}

// isDNSQuery reports whether a DNS-over-TCP chunk frames a query (QR=0).
// The framing is a 2-byte length prefix, then the 12-byte header whose
// flags' top bit distinguishes queries from responses — without this check
// the engine would re-trigger on the real server's response, whose
// question section also carries the forbidden name.
func isDNSQuery(payload []byte) bool {
	return len(payload) >= 6 && payload[4]&0x80 == 0
}

// Process implements netsim.Middlebox. The TMC is on-path: it injects in
// both directions but never drops.
func (c *TMC) Process(pkt *packet.Packet, dir netsim.Direction, now time.Duration) netsim.Verdict {
	port := servicePort(pkt)
	if port == 0 {
		return netsim.Verdict{}
	}
	m := metricsFor(protoForPort(port))

	// Residual censorship: a tainted server endpoint tears down every new
	// connection at the first ACK-bearing client packet (inclusive expiry,
	// like the GFW's poisoned windows).
	if dir == netsim.ToServer && pkt.TCP.Flags&packet.FlagACK != 0 &&
		c.residual.Live(netip.AddrPortFrom(pkt.IP.Dst, pkt.TCP.DstPort), now) {
		c.Censored++
		m.censored.Inc()
		m.residual.Inc()
		return c.teardown(pkt, dir, "residual censorship", m)
	}

	payload := pkt.TCP.Payload
	if len(payload) == 0 {
		return netsim.Verdict{}
	}

	switch port {
	case 53:
		// Single-packet DNS engine: a segmented query never frames, so
		// the parser fails and the censor fails open (Strategy 8).
		if !isDNSQuery(payload) {
			break
		}
		name, ok := pkt.DNSQueryName()
		if !ok || !censor.Default().MatchDomain(name) {
			break
		}
		c.Censored++
		m.censored.Inc()
		m.forged.Inc()
		// Forge the answer toward whichever side asked, impersonating
		// the other endpoint: the bogus response outruns (and, at the
		// receiver's reassembler, shadows) the real one.
		resp := packet.Get(pkt.IP.Dst, pkt.IP.Src, pkt.TCP.DstPort, pkt.TCP.SrcPort)
		resp.IP.TTL = 64
		resp.TCP.Flags = packet.FlagPSH | packet.FlagACK
		resp.TCP.Seq = pkt.TCP.Ack
		resp.TCP.Ack = pkt.TCP.Seq + uint32(len(payload))
		resp.TCP.Window = 65535
		resp.TCP.Payload = append(resp.TCP.Payload[:0], apps.EncodeDNSResponse(name, bogusAddr)...)
		v := netsim.Verdict{Note: "forged DNS response for " + name}
		if dir == netsim.ToServer {
			v.InjectToClient = []*packet.Packet{resp}
		} else {
			v.InjectToServer = []*packet.Packet{resp}
		}
		return v
	case 80:
		// Anchored single-packet HTTP engine, run in both directions over
		// every request pipelined in the payload.
		var host string
		if !pkt.MatchHTTPRequests(func(_, h string, hok bool) bool {
			host = h
			return hok && censor.Default().MatchDomain(h)
		}) {
			break
		}
		c.Censored++
		m.censored.Inc()
		c.taint(pkt, dir, now)
		return c.teardown(pkt, dir, "blocked Host "+host+"; bidirectional tear-down", m)
	case 443:
		// Single-packet SNI engine, run in both directions.
		sni, ok := pkt.TLSServerName()
		if !ok || !censor.Default().MatchDomain(sni) {
			break
		}
		c.Censored++
		m.censored.Inc()
		c.taint(pkt, dir, now)
		return c.teardown(pkt, dir, "blocked SNI "+sni+"; bidirectional tear-down", m)
	}
	return netsim.Verdict{}
}

// teardown fabricates the TMC's two-sided tear-down: one RST toward the
// packet's receiver impersonating the sender, one toward the sender
// impersonating the receiver. All numbering is derived statelessly from
// the offending packet.
func (c *TMC) teardown(pkt *packet.Packet, dir netsim.Direction, note string, m *engineMetrics) netsim.Verdict {
	end := pkt.TCP.Seq + uint32(len(pkt.TCP.Payload))
	// Toward the receiver, as if the sender reset.
	fwd := censor.InjectRST(pkt.Flow(), pkt.Flow().Reverse(), end, pkt.TCP.Ack)
	// Toward the sender, as if the receiver reset.
	rev := censor.InjectRST(pkt.Flow().Reverse(), pkt.Flow(), pkt.TCP.Ack, end)
	m.rsts.Inc()
	m.rsts.Inc()
	v := netsim.Verdict{Note: note}
	if dir == netsim.ToServer {
		v.InjectToServer = []*packet.Packet{fwd}
		v.InjectToClient = []*packet.Packet{rev}
	} else {
		v.InjectToClient = []*packet.Packet{fwd}
		v.InjectToServer = []*packet.Packet{rev}
	}
	return v
}

// taint opens (or extends) the residual window for the offending flow's
// server endpoint — the side on the well-known port. A longer window
// already in place (seeded from the fleet ledger) is kept.
func (c *TMC) taint(pkt *packet.Packet, dir netsim.Direction, now time.Duration) {
	server := netip.AddrPortFrom(pkt.IP.Dst, pkt.TCP.DstPort)
	if dir == netsim.ToClient {
		server = netip.AddrPortFrom(pkt.IP.Src, pkt.TCP.SrcPort)
	}
	c.residual.Extend(server, now, now+ResidualWindow)
}

// ExportResidual implements censor.ResidualCarrier: it reports every
// still-live tainted server window with its time remaining at now.
func (c *TMC) ExportResidual(now time.Duration, emit func(server netip.AddrPort, remaining time.Duration)) {
	c.residual.Export(now, emit)
}

// SeedResidual implements censor.ResidualCarrier: it installs a tainted
// window expiring at expiry on this instance's clock (max-merge).
func (c *TMC) SeedResidual(server netip.AddrPort, expiry time.Duration) {
	c.residual.Seed(server, expiry)
}
