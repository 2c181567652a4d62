package netsim

import (
	"net/netip"
	"strings"
	"testing"
	"time"

	"geneva/internal/packet"
)

var (
	clientAddr = netip.MustParseAddr("10.1.0.2")
	serverAddr = netip.MustParseAddr("198.51.100.9")
)

// recordHost records everything it receives and optionally replies once.
type recordHost struct {
	addr     netip.Addr
	got      []*packet.Packet
	replySeq uint32
	reply    bool
}

func (h *recordHost) Addr() netip.Addr { return h.addr }

func (h *recordHost) Receive(n *Network, pkt *packet.Packet) {
	h.got = append(h.got, pkt)
	if h.reply {
		h.reply = false
		r := packet.New(h.addr, pkt.IP.Src, pkt.TCP.DstPort, pkt.TCP.SrcPort)
		r.TCP.Flags = packet.FlagSYN | packet.FlagACK
		r.TCP.Seq = h.replySeq
		n.Send(h, r)
	}
}

// tapBox records what it sees; optionally drops or injects.
type tapBox struct {
	name    string
	seen    []uint8 // flags of observed packets
	dropAll bool
	inject  bool
}

func (b *tapBox) Name() string { return b.name }

func (b *tapBox) Process(pkt *packet.Packet, dir Direction, now time.Duration) Verdict {
	b.seen = append(b.seen, pkt.TCP.Flags)
	v := Verdict{Drop: b.dropAll}
	if b.inject {
		b.inject = false
		rst := packet.New(serverAddr, clientAddr, pkt.TCP.DstPort, pkt.TCP.SrcPort)
		rst.TCP.Flags = packet.FlagRST
		v.InjectToClient = []*packet.Packet{rst}
		v.Note = "censored"
	}
	return v
}

func syn(ttl uint8) *packet.Packet {
	p := packet.New(clientAddr, serverAddr, 40000, 80)
	p.TCP.Flags = packet.FlagSYN
	p.IP.TTL = ttl
	return p
}

func TestDeliveryAndReply(t *testing.T) {
	c := &recordHost{addr: clientAddr}
	s := &recordHost{addr: serverAddr, reply: true, replySeq: 77}
	n := New(c, s)
	n.Send(c, syn(64))
	n.Run(0)
	if len(s.got) != 1 || s.got[0].TCP.Flags != packet.FlagSYN {
		t.Fatalf("server got %d packets", len(s.got))
	}
	if len(c.got) != 1 || c.got[0].TCP.Flags != packet.FlagSYN|packet.FlagACK {
		t.Fatalf("client got %d packets", len(c.got))
	}
	if c.got[0].TCP.Seq != 77 {
		t.Errorf("reply seq = %d", c.got[0].TCP.Seq)
	}
}

func TestTTLDecrementAcrossPath(t *testing.T) {
	c := &recordHost{addr: clientAddr}
	s := &recordHost{addr: serverAddr}
	n := New(c, s) // 5 + 5 hops
	n.Send(c, syn(64))
	n.Run(0)
	if len(s.got) != 1 {
		t.Fatal("not delivered")
	}
	if got := s.got[0].IP.TTL; got != 54 {
		t.Errorf("TTL at server = %d, want 54", got)
	}
}

func TestTTLExpiryBeforeCensor(t *testing.T) {
	c := &recordHost{addr: clientAddr}
	s := &recordHost{addr: serverAddr}
	box := &tapBox{name: "tap"}
	n := New(c, s, box)
	n.Trace = &Trace{}
	n.Send(c, syn(4)) // 4 < 5 hops to censor
	n.Run(0)
	if len(box.seen) != 0 {
		t.Error("censor saw a packet that should have expired before it")
	}
	if len(s.got) != 0 {
		t.Error("server got an expired packet")
	}
}

func TestTTLReachesCensorButNotServer(t *testing.T) {
	c := &recordHost{addr: clientAddr}
	s := &recordHost{addr: serverAddr}
	box := &tapBox{name: "tap"}
	n := New(c, s, box)
	n.Send(c, syn(7)) // >= 5 to reach censor, < 10 to reach server
	n.Run(0)
	if len(box.seen) != 1 {
		t.Error("censor did not see the TTL-limited probe")
	}
	if len(s.got) != 0 {
		t.Error("server received the TTL-limited probe")
	}
}

func TestInPathDrop(t *testing.T) {
	c := &recordHost{addr: clientAddr}
	s := &recordHost{addr: serverAddr}
	box := &tapBox{name: "inpath", dropAll: true}
	n := New(c, s, box)
	n.Send(c, syn(64))
	n.Run(0)
	if len(s.got) != 0 {
		t.Error("dropped packet was delivered")
	}
}

func TestInjectionBypassesBoxes(t *testing.T) {
	c := &recordHost{addr: clientAddr}
	s := &recordHost{addr: serverAddr}
	box := &tapBox{name: "onpath", inject: true}
	n := New(c, s, box)
	n.Send(c, syn(64))
	n.Run(0)
	if len(c.got) != 1 || c.got[0].TCP.Flags != packet.FlagRST {
		t.Fatalf("client got %d packets, want 1 injected RST", len(c.got))
	}
	// The injected RST must not be re-processed by the box.
	if len(box.seen) != 1 {
		t.Errorf("box saw %d packets, want only the original SYN", len(box.seen))
	}
}

// TestNilMiddleboxIgnored: a nil box passed to New or NewMulti is dropped,
// so a caller with no censor hands its nil one straight through and gets a
// censor-free path; the live boxes around it still see every packet.
func TestNilMiddleboxIgnored(t *testing.T) {
	var nilBox Middlebox
	tap := &tapBox{name: "tap"}
	for _, tc := range []struct {
		name string
		net  func(c, s Host) *Network
		want int
	}{
		{"new-nil", func(c, s Host) *Network { return New(c, s, nilBox) }, 0},
		{"new-mixed", func(c, s Host) *Network { return New(c, s, nil, tap, nilBox) }, 1},
		{"newmulti-nil", func(c, s Host) *Network { return NewMulti(s, []Host{c}, nilBox) }, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := &recordHost{addr: clientAddr}
			s := &recordHost{addr: serverAddr, reply: true}
			n := tc.net(c, s)
			if len(n.Boxes()) != tc.want {
				t.Fatalf("network kept %d boxes, want %d", len(n.Boxes()), tc.want)
			}
			n.Send(c, syn(64))
			n.Run(0)
			if len(s.got) != 1 || len(c.got) != 1 {
				t.Fatalf("server got %d, client got %d packets; want 1 each", len(s.got), len(c.got))
			}
		})
	}
	if len(tap.seen) != 2 {
		t.Errorf("live box beside nil ones saw %d packets, want the SYN and its reply", len(tap.seen))
	}
}

func TestFIFOOrderPreserved(t *testing.T) {
	c := &recordHost{addr: clientAddr}
	s := &recordHost{addr: serverAddr}
	n := New(c, s)
	for i := 0; i < 10; i++ {
		p := syn(64)
		p.TCP.Seq = uint32(i)
		n.Send(c, p)
	}
	n.Run(0)
	if len(s.got) != 10 {
		t.Fatalf("delivered %d", len(s.got))
	}
	for i, p := range s.got {
		if p.TCP.Seq != uint32(i) {
			t.Fatalf("packet %d has seq %d: FIFO violated", i, p.TCP.Seq)
		}
	}
}

func TestClockAdvancesWithDelivery(t *testing.T) {
	c := &recordHost{addr: clientAddr}
	s := &recordHost{addr: serverAddr}
	n := New(c, s)
	n.Send(c, syn(64))
	n.Run(0)
	if n.Clock.Now() <= 0 {
		t.Error("clock did not advance")
	}
	before := n.Clock.Now()
	n.Clock.Advance(90 * time.Second)
	if n.Clock.Now() != before+90*time.Second {
		t.Error("manual Advance failed")
	}
	n.Clock.Advance(-time.Second)
	if n.Clock.Now() != before+90*time.Second {
		t.Error("clock ran backwards")
	}
}

func TestTraceWaterfallContainsPackets(t *testing.T) {
	c := &recordHost{addr: clientAddr}
	s := &recordHost{addr: serverAddr, reply: true}
	n := New(c, s)
	n.Trace = &Trace{}
	n.Send(c, syn(64))
	n.Run(0)
	w := n.Trace.Waterfall("test flow")
	if !strings.Contains(w, "SYN") || !strings.Contains(w, "SYN/ACK") {
		t.Errorf("waterfall missing packets:\n%s", w)
	}
	toS, toC := n.Trace.Summary()
	if toS != 1 || toC != 1 {
		t.Errorf("summary = %d,%d", toS, toC)
	}
}

func TestRunLimit(t *testing.T) {
	// Two hosts that reply forever would loop; the limit must stop it.
	c := &echoForever{addr: clientAddr}
	s := &echoForever{addr: serverAddr}
	n := New(c, s)
	p := syn(255)
	n.Send(c, p)
	if got := n.Run(50); got != 50 {
		t.Errorf("processed %d, want 50", got)
	}
}

type echoForever struct{ addr netip.Addr }

func (h *echoForever) Addr() netip.Addr { return h.addr }
func (h *echoForever) Receive(n *Network, pkt *packet.Packet) {
	r := packet.New(h.addr, pkt.IP.Src, pkt.TCP.DstPort, pkt.TCP.SrcPort)
	r.TCP.Flags = packet.FlagACK
	r.IP.TTL = 255
	n.Send(h, r)
}
