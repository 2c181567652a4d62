package core

import (
	"math/rand"
	"net/netip"

	"geneva/internal/packet"
)

// Router implements §8's deployment model: a server helping clients in
// several censoring regimes must pick a strategy *per client*, and it must
// do so from nothing but the client's SYN — the only packet it has seen
// when the SYN+ACK (every strategy's trigger) goes out.
//
// Routes map client address prefixes (standing in for the paper's
// country-level IP geolocation) to engines; clients matching no route get
// the fallback (nil = no manipulation). Route lookup happens per flow and
// is cached for the flow's lifetime so mid-connection packets keep their
// strategy even if the table changes.
//
// A Router is single-owner, like the engines behind it: Route and
// Outbound must not run concurrently. Each simulation owns its router.
type Router struct {
	routes   []route
	fallback *Engine
	flows    map[packet.Flow]*Engine
	// pass is the reusable pass-through result for flows with no engine,
	// mirroring Engine's scratch: Outbound's result is only valid until
	// the next call.
	pass [1]*packet.Packet
}

type route struct {
	prefix netip.Prefix
	engine *Engine
}

// NewRouter builds an empty router with an optional fallback engine.
func NewRouter(fallback *Engine) *Router {
	return &Router{
		fallback: fallback,
		flows:    make(map[packet.Flow]*Engine),
	}
}

// Route installs a strategy for clients within the prefix. More-specific
// prefixes win; among equal lengths, the earlier installation wins.
func (r *Router) Route(prefix netip.Prefix, s *Strategy, rng *rand.Rand) {
	r.routes = append(r.routes, route{prefix: prefix, engine: NewEngine(s, rng)})
}

// engineFor picks the engine for a destination (client) address.
func (r *Router) engineFor(client netip.Addr) *Engine {
	var best *Engine
	bestLen := -1
	for _, rt := range r.routes {
		if rt.prefix.Contains(client) && rt.prefix.Bits() > bestLen {
			best, bestLen = rt.engine, rt.prefix.Bits()
		}
	}
	if best == nil {
		return r.fallback
	}
	return best
}

// Outbound is the tcpstack.Endpoint hook: it routes each outbound packet
// through the strategy chosen for that packet's client. The returned slice
// is only valid until the next call (same contract as Engine.Outbound).
func (r *Router) Outbound(p *packet.Packet) []*packet.Packet {
	flow := p.Flow()
	eng, ok := r.flows[flow]
	if !ok {
		eng = r.engineFor(p.IP.Dst)
		r.flows[flow] = eng
	}
	if eng == nil {
		r.pass[0] = p
		return r.pass[:1]
	}
	return eng.Outbound(p)
}

// Flows reports how many flows have pinned engines (for tests/metrics).
func (r *Router) Flows() int { return len(r.flows) }
