package netsim

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"geneva/internal/packet"
)

// Direction of a packet relative to the connection's client.
type Direction int

// Directions.
const (
	ToServer Direction = iota // client -> server ("outbound" from the censor's client)
	ToClient                  // server -> client
)

func (d Direction) String() string {
	if d == ToServer {
		return "->server"
	}
	return "->client"
}

// Reverse returns the opposite direction.
func (d Direction) Reverse() Direction {
	if d == ToServer {
		return ToClient
	}
	return ToServer
}

// Host is an endpoint attached to the network. Receive is called for every
// packet delivered to the host; the host responds by calling Network.Send.
type Host interface {
	Addr() netip.Addr
	Receive(n *Network, pkt *packet.Packet)
}

// Verdict is a middlebox's decision about one observed packet.
type Verdict struct {
	// Drop suppresses forwarding (in-path censors only; on-path censors
	// physically cannot drop, §2.1).
	Drop bool
	// InjectToClient / InjectToServer are packets the box fabricates.
	// They are delivered without further middlebox processing.
	InjectToClient []*packet.Packet
	InjectToServer []*packet.Packet
	// Note annotates the trace (e.g. "GFW-HTTP: censored").
	Note string
}

// Middlebox observes packets at the censor hop.
type Middlebox interface {
	Name() string
	// Process sees every packet crossing the censor hop, in order, with
	// the censor-relative direction and the current virtual time.
	Process(pkt *packet.Packet, dir Direction, now time.Duration) Verdict
}

// Network joins a client and a server across a path of hops with
// middleboxes attached HopsToCensor hops away from the client.
type Network struct {
	Clock *Clock
	// HopsToCensor is the number of routers between the client and the
	// censor; HopsBeyondCensor between the censor and the server.
	HopsToCensor     int
	HopsBeyondCensor int
	// LinkDelay is the per-hop one-way latency.
	LinkDelay time.Duration
	// Trace, if non-nil, records every packet event for waterfalls. With
	// Trace nil the network skips event capture entirely — no note
	// assembly, no clones — which is the fitness-trial default.
	Trace *Trace
	// RecyclePackets returns packets to the shared pool once they reach a
	// terminal point (delivered, dropped, lost, expired, unroutable).
	// Opt-in: only enable when every attached Host, Middlebox, and hook
	// copies what it keeps rather than retaining delivered *Packet
	// pointers (true for the eval rigs, which set this). Tracing stays
	// safe either way because the Trace clones at record time.
	RecyclePackets bool

	client, server Host
	clients        map[netip.Addr]Host
	boxes          []Middlebox

	impair    Profile
	impairRNG *rand.Rand

	queue eventHeap
	seq   int
	steps int
}

// New builds a network with sensible defaults: 5 hops to the censor,
// 5 beyond it, 1 ms per hop. Nil middleboxes are dropped, so a caller with
// no censor passes its nil one along.
func New(client, server Host, boxes ...Middlebox) *Network {
	var live []Middlebox
	for _, b := range boxes {
		if b != nil {
			live = append(live, b)
		}
	}
	n := &Network{
		Clock:            &Clock{},
		HopsToCensor:     5,
		HopsBeyondCensor: 5,
		LinkDelay:        time.Millisecond,
		client:           client,
		server:           server,
		clients:          map[netip.Addr]Host{client.Addr(): client},
		boxes:            live,
		// A handshake plus a short data exchange keeps only a handful of
		// events in flight; seeding capacity for 8 makes the steady state
		// allocation-free instead of growing one event at a time.
		queue: eventHeap{ev: make([]event, 0, 8)},
	}
	return n
}

// NewMulti builds a network with one server and several clients (all on the
// censored side of the middleboxes). Client-bound packets route by
// destination address. Nil middleboxes are dropped, as in New.
func NewMulti(server Host, clients []Host, boxes ...Middlebox) *Network {
	if len(clients) == 0 {
		panic("netsim: NewMulti requires at least one client")
	}
	n := New(clients[0], server, boxes...)
	for _, c := range clients {
		n.clients[c.Addr()] = c
	}
	return n
}

// Client returns the attached client host.
func (n *Network) Client() Host { return n.client }

// Server returns the attached server host.
func (n *Network) Server() Host { return n.server }

// Boxes returns the attached middleboxes.
func (n *Network) Boxes() []Middlebox { return n.boxes }

type event struct {
	at         time.Duration
	seq        int
	pkt        *packet.Packet
	dir        Direction
	fromCensor bool   // injected by a box: skip middlebox processing
	fire       func() // a timer, not a packet (pkt is nil)
}

// Send transmits pkt from the given host toward the other endpoint. Hosts
// call this from Receive; harnesses call it to start a connection.
func (n *Network) Send(from Host, pkt *packet.Packet) {
	dir := ToServer
	if from == n.server {
		dir = ToClient
	}
	n.enqueue(pkt, dir, false)
}

// Inject delivers a fabricated packet toward one endpoint without middlebox
// processing (used by the harness for instrumented client behaviour).
func (n *Network) Inject(pkt *packet.Packet, dir Direction) {
	n.enqueue(pkt, dir, true)
}

func (n *Network) enqueue(pkt *packet.Packet, dir Direction, fromCensor bool) {
	if !n.impair.Enabled() {
		n.push(pkt, dir, fromCensor, n.LinkDelay)
		return
	}
	// Impairment draws happen in a fixed order (loss, primary-copy delay,
	// duplication, duplicate-copy delay) so a seeded rng always produces
	// the same schedule.
	now := n.Clock.Now()
	if n.impairRNG.Float64() < n.impair.Loss {
		mLost.Inc()
		n.trace(pkt, dir, "lost (impairment)", now)
		n.recycle(pkt)
		return
	}
	n.push(pkt, dir, fromCensor, n.LinkDelay+n.impairExtra())
	if n.impairRNG.Float64() < n.impair.Duplicate {
		mDuplicated.Inc()
		n.trace(pkt, dir, "duplicated (impairment)", now)
		n.push(pkt.ClonePooled(), dir, fromCensor, n.LinkDelay+n.impairExtra())
	}
}

func (n *Network) push(pkt *packet.Packet, dir Direction, fromCensor bool, delay time.Duration) {
	n.seq++
	n.queue.push(event{
		at:         n.Clock.Now() + delay,
		seq:        n.seq,
		pkt:        pkt,
		dir:        dir,
		fromCensor: fromCensor,
	})
}

// After schedules fn to run at virtual time Now()+d, interleaved with
// packet deliveries in timestamp order. Endpoint retransmission timers are
// built on this; a pending timer keeps the network non-quiet, so timer
// users must bound their rearming (the tcpstack retransmit machinery caps
// its retries for exactly this reason).
func (n *Network) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	n.seq++
	n.queue.push(event{at: n.Clock.Now() + d, seq: n.seq, fire: fn})
}

// Run processes queued packets until the network is quiet or limit events
// have been handled. It returns the number of events processed. A limit of
// 0 means a generous default (100k), enough for any single connection.
func (n *Network) Run(limit int) int {
	if limit <= 0 {
		limit = 100000
	}
	processed := 0
	for n.queue.len() > 0 && processed < limit {
		e := n.queue.pop()
		n.Clock.advanceTo(e.at)
		if e.fire != nil {
			mTimersFired.Inc()
			e.fire()
		} else {
			n.deliver(&e)
		}
		processed++
	}
	return processed
}

// Quiet reports whether no packets are in flight.
func (n *Network) Quiet() bool { return n.queue.len() == 0 }

// deliver carries one packet across its two legs: sender -> censor hop,
// then censor hop -> receiver.
//
// TTL boundary semantics (pinned; see TestTTLBoundary): each leg requires
// TTL >= hops and decrements by hops, so a packet whose TTL exactly equals
// a leg's hop count survives that leg. TTL == hopsBefore reaches the censor
// and, if hopsAfter > 0, expires on the second leg; TTL == hopsBefore +
// hopsAfter is delivered to the endpoint with TTL 0. This mirrors real
// forwarding, where a router decrements before forwarding and drops only on
// TTL reaching 0 mid-path — the receiving host itself never discards on
// TTL. The paper's low-TTL insertion strategies (§5.2) depend on the first
// half (TTL tuned to die between censor and server), and changing either
// edge would silently shift every evolved TTL value by one hop.
func (n *Network) deliver(e *event) {
	hopsBefore, hopsAfter := n.HopsToCensor, n.HopsBeyondCensor
	if e.dir == ToClient {
		hopsBefore, hopsAfter = n.HopsBeyondCensor, n.HopsToCensor
	}
	now := n.Clock.Now()
	// Note strings exist only for the Trace; skip assembling them (and the
	// allocations that implies) when nobody is listening.
	rec := n.Trace != nil

	if !e.fromCensor {
		// Leg 1: sender -> censor hop.
		if int(e.pkt.IP.TTL) < hopsBefore {
			mExpiredTTL.Inc()
			n.trace(e.pkt, e.dir, "expired before censor", now)
			n.recycle(e.pkt)
			return
		}
		e.pkt.IP.TTL -= uint8(hopsBefore)

		drop := false
		var notes []string
		for _, b := range n.boxes {
			v := b.Process(e.pkt, e.dir, now)
			if rec && v.Note != "" {
				notes = append(notes, fmt.Sprintf("%s: %s", b.Name(), v.Note))
			}
			drop = drop || v.Drop
			for _, inj := range v.InjectToClient {
				mInjected.Inc()
				n.enqueue(inj, ToClient, true)
				if rec {
					n.trace(inj, ToClient, "injected by "+b.Name(), now)
				}
			}
			for _, inj := range v.InjectToServer {
				mInjected.Inc()
				n.enqueue(inj, ToServer, true)
				if rec {
					n.trace(inj, ToServer, "injected by "+b.Name(), now)
				}
			}
		}
		note := ""
		for i, s := range notes {
			if i > 0 {
				note += "; "
			}
			note += s
		}
		if drop {
			mDroppedInPath.Inc()
			if rec {
				n.trace(e.pkt, e.dir, strjoin(note, "dropped in-path"), now)
			}
			n.recycle(e.pkt)
			return
		}
		if note != "" {
			n.trace(e.pkt, e.dir, note, now)
		}
	}

	// Leg 2: censor hop -> receiver.
	if int(e.pkt.IP.TTL) < hopsAfter {
		mExpiredTTL.Inc()
		n.trace(e.pkt, e.dir, "expired after censor", now)
		n.recycle(e.pkt)
		return
	}
	e.pkt.IP.TTL -= uint8(hopsAfter)

	dst := n.server
	if e.dir == ToClient {
		c, ok := n.clients[e.pkt.IP.Dst]
		if !ok {
			// A packet for an address nobody holds (spoofed or stale):
			// it falls off the edge of the network.
			mNoRoute.Inc()
			n.trace(e.pkt, e.dir, "no route to client", now)
			n.recycle(e.pkt)
			return
		}
		dst = c
	}
	mDelivered.Inc()
	n.trace(e.pkt, e.dir, "delivered", now)
	dst.Receive(n, e.pkt)
	n.recycle(e.pkt)
}

func (n *Network) trace(pkt *packet.Packet, dir Direction, note string, at time.Duration) {
	if n.Trace != nil {
		n.Trace.add(pkt, dir, note, at)
	}
}

// recycle returns a packet that reached a terminal point to the pool when
// RecyclePackets is enabled; the Trace has already cloned anything it keeps
// by the time this runs.
func (n *Network) recycle(p *packet.Packet) {
	if n.RecyclePackets {
		mRecycled.Inc()
		packet.Put(p)
	}
}

func strjoin(a, b string) string {
	if a == "" {
		return b
	}
	return a + "; " + b
}
