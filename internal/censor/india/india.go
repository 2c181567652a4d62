// Package india models India's web censorship as an ISP *family* rather
// than a single middlebox. Yadav et al. ("Where The Light Gets In",
// IMC 2018 — see PAPERS.md) show that Indian censorship is implemented
// independently by each ISP, with mechanically different filtering and
// response behaviour; the paper's §5.2 Airtel measurements cover just one
// sibling of that family.
//
// All modeled ISPs share the same skeleton — a completely stateless
// on-path/in-path DPI engine that matches a single packet, never
// reassembles (so inducing client segmentation, Strategy 8, defeats every
// sibling), and censors only on the protocol's default port — and differ
// only in Params: which triggers they watch (HTTP Host, TLS SNI) and what
// they do on a match:
//
//   - Airtel (§5.2, Yadav et al.): HTTP only; injects an HTTP 200 block
//     page on a FIN+PSH+ACK plus a follow-up RST. Purely on-path: it
//     cannot drop.
//   - Jio (Yadav et al.): SNI-triggered blackholing on port 443 — the
//     offending ClientHello and every later client packet of the flow are
//     silently dropped for a window, so the client sees only timeouts.
//   - Vodafone (Yadav et al.): HTTP only; injects an HTTP 302 redirect to
//     the ISP's notice page instead of a block page, with no RST — the
//     real response is simply outrun.
//
// New siblings are a Params literal away; nothing else in the harness
// needs to know.
package india

import (
	"math/rand"
	"time"

	"geneva/internal/censor"
	"geneva/internal/netsim"
	"geneva/internal/packet"
)

// Action is what an ISP does when a trigger matches.
type Action int

const (
	// ActionNone: the ISP does not filter this trigger at all.
	ActionNone Action = iota
	// ActionBlockPage injects an HTTP 200 block page on a FIN+PSH+ACK,
	// plus a follow-up RST (Airtel).
	ActionBlockPage
	// ActionRedirect injects an HTTP 302 to the ISP's notice page, no RST
	// (Vodafone).
	ActionRedirect
	// ActionBlackhole drops the offending packet and every later client
	// packet of the flow for BlackholeWindow (Jio). In-path only.
	ActionBlackhole
)

// Params selects one ISP's behaviour within the shared stateless-DPI
// skeleton.
type Params struct {
	// ISP names the sibling ("airtel", "jio", "vodafone") — used for the
	// metric label and Name().
	ISP string
	// HTTP is the action on a forbidden Host header seen on port 80.
	HTTP Action
	// SNI is the action on a forbidden TLS SNI seen on port 443.
	SNI Action
	// BlackholeWindow is how long ActionBlackhole drops the client flow.
	BlackholeWindow time.Duration
	// BlockBody is the HTML body of an ActionBlockPage injection.
	BlockBody string
	// RedirectLocation is the Location target of an ActionRedirect
	// injection.
	RedirectLocation string
}

// Airtel returns the §5.2 Airtel calibration: stateless HTTP-only DPI
// that injects a DoT block page and a follow-up RST. This is byte-for-byte
// the behaviour of the original single-ISP Airtel model.
func Airtel() Params {
	return Params{
		ISP:       "airtel",
		HTTP:      ActionBlockPage,
		BlockBody: "<html><body>This website has been blocked as per instructions of DoT.</body></html>",
	}
}

// Jio returns the Jio calibration: SNI-triggered blackholing on port 443
// (Yadav et al. observed censorship via silent packet drops, leaving the
// client to time out).
func Jio() Params {
	return Params{
		ISP:             "jio",
		SNI:             ActionBlackhole,
		BlackholeWindow: time.Minute,
	}
}

// Vodafone returns the Vodafone calibration: HTTP-only DPI injecting a 302
// redirect to the ISP notice page.
func Vodafone() Params {
	return Params{
		ISP:              "vodafone",
		HTTP:             ActionRedirect,
		RedirectLocation: "http://www.vodafone.in/dot-compliance",
	}
}

// ISPs returns the modeled siblings in a fixed order.
func ISPs() []Params { return []Params{Airtel(), Jio(), Vodafone()} }

// India is one ISP's middlebox.
type India struct {
	Block censor.Blocklist
	P     Params
	// Censored counts censorship events.
	Censored int

	m *ispMetrics
	// blackholes holds each offending client flow's drop window
	// (ActionBlackhole only).
	blackholes censor.Windows[packet.Flow]
}

// New builds the ISP middlebox for params. The rng is unused (every Indian
// ISP model is deterministic) but accepted for interface symmetry with the
// other censors.
func New(p Params, bl censor.Blocklist, _ *rand.Rand) *India {
	return &India{Block: bl, P: p, m: metricsFor(p.ISP)}
}

// NewAirtel builds the Airtel sibling (the original §5.2 model).
func NewAirtel(bl censor.Blocklist, rng *rand.Rand) *India { return New(Airtel(), bl, rng) }

// Name implements netsim.Middlebox.
func (in *India) Name() string { return "India-" + in.P.ISP }

// Process implements netsim.Middlebox. Every sibling is stateless DPI over
// single client packets: no handshake needed, no reassembly, default ports
// only. Only ActionBlackhole keeps (per-flow expiry) state afterwards.
func (in *India) Process(pkt *packet.Packet, dir netsim.Direction, now time.Duration) netsim.Verdict {
	if dir != netsim.ToServer {
		return netsim.Verdict{}
	}
	// Active blackhole: silently drop everything the offending client flow
	// sends until the window expires.
	if in.blackholes.Live(pkt.Flow(), now) {
		in.m.blackholed.Inc()
		return netsim.Verdict{Drop: true, Note: "blackholed"}
	}
	if len(pkt.TCP.Payload) == 0 {
		return netsim.Verdict{}
	}
	action := ActionNone
	note := ""
	switch pkt.TCP.DstPort {
	case 80:
		if in.P.HTTP == ActionNone {
			break
		}
		// The DPI pattern is anchored at a well-formed request line: a
		// packet that starts mid-request is not recognized as HTTP at all.
		// This is why inducing client segmentation (Strategy 8) wins 100%
		// of the time — neither segment looks like an HTTP request. Every
		// request pipelined in the packet gets its Host matched.
		var host string
		if pkt.MatchHTTPRequests(func(_, h string, hok bool) bool {
			host = h
			return hok && in.Block.MatchDomain(h)
		}) {
			action = in.P.HTTP
			note = "blocked Host " + host
		}
	case 443:
		if in.P.SNI == ActionNone {
			break
		}
		// Same single-packet anchor: a segmented ClientHello never parses.
		if sni, ok := pkt.TLSServerName(); ok && in.Block.MatchDomain(sni) {
			action = in.P.SNI
			note = "blocked SNI " + sni
		}
	}
	if action == ActionNone {
		return netsim.Verdict{}
	}
	in.Censored++
	in.m.censored.Inc()

	// Stateless injection: all numbers are derived from the offending
	// packet itself.
	srvFlow := pkt.Flow().Reverse()
	seq := pkt.TCP.Ack
	ack := pkt.TCP.Seq + uint32(len(pkt.TCP.Payload))
	switch action {
	case ActionBlockPage:
		page := censor.BlockPage(srvFlow, seq, ack, in.P.BlockBody)
		rst := censor.InjectRST(srvFlow, pkt.Flow(), seq+uint32(len(page.TCP.Payload))+1, ack)
		in.m.pages.Inc()
		in.m.rsts.Inc()
		return netsim.Verdict{
			Note:           note,
			InjectToClient: []*packet.Packet{page, rst},
		}
	case ActionRedirect:
		in.m.redirects.Inc()
		return netsim.Verdict{
			Note:           note + "; 302 injected",
			InjectToClient: []*packet.Packet{censor.Redirect302(srvFlow, seq, ack, in.P.RedirectLocation)},
		}
	case ActionBlackhole:
		// The blackhole ends at now+BlackholeWindow: its last dropped
		// instant is one tick earlier.
		in.blackholes.Open(pkt.Flow(), now, now+in.P.BlackholeWindow-1)
		in.m.blackholed.Inc()
		return netsim.Verdict{Drop: true, Note: note + "; blackhole started"}
	}
	return netsim.Verdict{}
}

// CensoredCount returns the number of censorship events (eval harness
// interface).
func (in *India) CensoredCount() int { return in.Censored }
