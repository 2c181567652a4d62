package eval

import (
	"time"

	"geneva/internal/core"
	"geneva/internal/lazyrand"
	"geneva/internal/netsim"
	"geneva/internal/packet"
	"geneva/internal/strategies"
	"geneva/internal/tcpstack"
)

// carrierBox models the in-network cellular middleboxes of §7's anecdote:
// not censors, but NATs/firewalls that silently drop server-originated SYN
// packets (a server never initiates a connection to a mobile client, so
// the middlebox treats such SYNs as garbage). The paper observed the
// simultaneous-open strategies failing on T-Mobile (Strategies 1 and 3)
// and AT&T (1, 2, and 3).
type carrierBox struct {
	name string
	// dropLoadedSyn also drops SYNs carrying a payload (the AT&T model;
	// the T-Mobile model lets Strategy 2's payload-bearing SYN through).
	dropLoadedSyn bool
}

func (c *carrierBox) Name() string { return c.name }

func (c *carrierBox) Process(pkt *packet.Packet, dir netsim.Direction, now time.Duration) netsim.Verdict {
	if dir != netsim.ToClient || pkt.TCP.Flags != packet.FlagSYN {
		return netsim.Verdict{}
	}
	if len(pkt.TCP.Payload) > 0 && !c.dropLoadedSyn {
		return netsim.Verdict{}
	}
	return netsim.Verdict{Drop: true, Note: "server-originated SYN dropped by carrier"}
}

// CarrierInterference reproduces the §7 network-compatibility anecdote:
// each strategy is run on a censor-free network behind a simulated
// cellular middlebox; the result maps carrier -> strategy number -> works.
// Wifi (no middlebox) is the control.
func CarrierInterference() map[string]map[int]bool {
	carriers := map[string]netsim.Middlebox{
		"wifi":    nil,
		"tmobile": &carrierBox{name: "T-Mobile", dropLoadedSyn: false},
		"att":     &carrierBox{name: "AT&T", dropLoadedSyn: true},
	}
	out := make(map[string]map[int]bool)
	for cname, box := range carriers {
		res := make(map[int]bool)
		for _, s := range strategies.All() {
			res[s.Number] = carrierTrial(box, s.Parse())
		}
		out[cname] = res
	}
	return out
}

// carrierTrial runs one censor-free connection behind the given middlebox.
func carrierTrial(box netsim.Middlebox, strategy *core.Strategy) bool {
	session := SessionFor(CountryNone, "http", true)
	client := tcpstack.NewEndpoint(ClientAddr, tcpstack.DefaultClient, lazyrand.New(1))
	server := tcpstack.NewEndpoint(ServerAddr, tcpstack.DefaultServer, lazyrand.New(2))
	server.NewServerApp = session.ServerFactory()
	server.Listen(session.Port)
	server.Outbound = core.NewEngine(strategy, lazyrand.New(3)).Outbound
	n := netsim.New(client, server, box)
	client.Attach(n)
	server.Attach(n)
	app := session.NewClient()
	client.Connect(ServerAddr, session.Port, app)
	n.Run(0)
	return app.Succeeded()
}

// Compile-time guard: the box is a Middlebox.
var _ netsim.Middlebox = (*carrierBox)(nil)
