// Package iran models Iran's censorship middlebox (§5.2): stateless DPI
// over HTTP (port 80) and HTTPS SNI (port 443) that "blackholes" offenders.
//
// Properties from the paper:
//   - censors only on the protocols' default ports;
//   - no connection-state tracking: a forbidden request without a
//     handshake is censored;
//   - matches within a single packet (no reassembly): Strategy 8 wins;
//   - on a match, drops the offending packet and all future packets from
//     the client in that flow for one minute (no injection at all);
//   - DNS-over-TCP is no longer censored (contra Aryan et al.).
package iran

import (
	"math/rand"
	"time"

	"geneva/internal/censor"
	"geneva/internal/netsim"
	"geneva/internal/obs"
	"geneva/internal/packet"
)

var (
	mCensored   = obs.NewCounter("censor.iran.censored")
	mBlackholed = obs.NewCounter("censor.iran.blackholed_drops")
)

// blackholeDuration is how long an offending client flow is dropped.
const blackholeDuration = time.Minute

// Iran is the Iranian middlebox.
type Iran struct {
	Block censor.Blocklist
	// Censored counts censorship events (new blackholes).
	Censored int

	// blackholes holds each offending client flow's drop window.
	blackholes censor.Windows[packet.Flow]
}

// New builds the censor (deterministic; rng accepted for symmetry).
func New(bl censor.Blocklist, _ *rand.Rand) *Iran {
	return &Iran{Block: bl}
}

// Name implements netsim.Middlebox.
func (ir *Iran) Name() string { return "Iran" }

// Process implements netsim.Middlebox.
func (ir *Iran) Process(pkt *packet.Packet, dir netsim.Direction, now time.Duration) netsim.Verdict {
	if dir != netsim.ToServer {
		return netsim.Verdict{}
	}
	flow := pkt.Flow()
	if ir.blackholes.Live(flow, now) {
		mBlackholed.Inc()
		return netsim.Verdict{Drop: true, Note: "blackholed"}
	}
	if len(pkt.TCP.Payload) == 0 {
		return netsim.Verdict{}
	}
	matched := false
	switch pkt.TCP.DstPort {
	case 80:
		// Anchored at a well-formed request line, like Airtel: a
		// mid-request segment is not recognized as HTTP (Strategy 8).
		// Every request pipelined in the packet gets its Host matched.
		matched = pkt.MatchHTTPRequests(func(_, host string, hok bool) bool {
			return hok && ir.Block.MatchDomain(host)
		})
	case 443:
		if sni, ok := pkt.TLSServerName(); ok && ir.Block.MatchDomain(sni) {
			matched = true
		}
	}
	if !matched {
		return netsim.Verdict{}
	}
	ir.Censored++
	mCensored.Inc()
	// The blackhole ends at now+blackholeDuration: its last dropped
	// instant is one tick earlier.
	ir.blackholes.Open(flow, now, now+blackholeDuration-1)
	return netsim.Verdict{Drop: true, Note: "blackhole started"}
}

// CensoredCount returns the number of censorship events (eval harness
// interface).
func (ir *Iran) CensoredCount() int { return ir.Censored }
