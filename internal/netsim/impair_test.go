package netsim

import (
	"math/rand"
	"strings"
	"testing"
	"time"
)

func burst(n *Network, c Host, count int) {
	for i := 0; i < count; i++ {
		p := syn(64)
		p.TCP.Seq = uint32(i)
		n.Send(c, p)
	}
}

// TestZeroImpairmentsIsInert: installing a zero-value Profile must leave
// delivery byte-identical to a network that never called SetImpairments —
// same packets, same order, same trace.
func TestZeroImpairmentsIsInert(t *testing.T) {
	run := func(install bool) *Trace {
		c := &recordHost{addr: clientAddr}
		s := &recordHost{addr: serverAddr, reply: true, replySeq: 9}
		n := New(c, s)
		n.Trace = &Trace{}
		if install {
			n.SetImpairments(Profile{}, rand.New(rand.NewSource(42)))
		}
		burst(n, c, 10)
		n.Run(0)
		return n.Trace
	}
	plain, installed := run(false), run(true)
	if len(plain.Entries) != len(installed.Entries) {
		t.Fatalf("trace lengths differ: %d vs %d", len(plain.Entries), len(installed.Entries))
	}
	for i := range plain.Entries {
		a, b := plain.Entries[i], installed.Entries[i]
		if a.Time != b.Time || a.Dir != b.Dir || a.Note != b.Note || a.Pkt.TCP.Seq != b.Pkt.TCP.Seq {
			t.Fatalf("entry %d differs: %+v vs %+v", i, a, b)
		}
	}
}

// TestTotalLossDeliversNothing: Loss=1 drops every packet and records the
// drop in the trace.
func TestTotalLossDeliversNothing(t *testing.T) {
	c := &recordHost{addr: clientAddr}
	s := &recordHost{addr: serverAddr}
	n := New(c, s)
	n.Trace = &Trace{}
	n.SetImpairments(Profile{Loss: 1}, rand.New(rand.NewSource(1)))
	burst(n, c, 5)
	n.Run(0)
	if len(s.got) != 0 {
		t.Fatalf("server got %d packets through a 100%%-loss link", len(s.got))
	}
	lost := 0
	for _, e := range n.Trace.Entries {
		if strings.Contains(e.Note, "lost (impairment)") {
			lost++
		}
	}
	if lost != 5 {
		t.Errorf("trace records %d losses, want 5", lost)
	}
}

// TestDuplicationDeliversTwice: Duplicate=1 doubles every packet.
func TestDuplicationDeliversTwice(t *testing.T) {
	c := &recordHost{addr: clientAddr}
	s := &recordHost{addr: serverAddr}
	n := New(c, s)
	n.SetImpairments(Profile{Duplicate: 1}, rand.New(rand.NewSource(1)))
	burst(n, c, 4)
	n.Run(0)
	if len(s.got) != 8 {
		t.Fatalf("server got %d packets, want 8 (every packet duplicated)", len(s.got))
	}
}

// TestReorderViolatesFIFO: with reordering enabled, a burst must arrive out
// of order for at least one seed (the whole point of the knob).
func TestReorderViolatesFIFO(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		c := &recordHost{addr: clientAddr}
		s := &recordHost{addr: serverAddr}
		n := New(c, s)
		n.SetImpairments(Profile{Reorder: 0.5}, rand.New(rand.NewSource(seed)))
		burst(n, c, 10)
		n.Run(0)
		if len(s.got) != 10 {
			t.Fatalf("seed %d: reorder lost packets (%d delivered)", seed, len(s.got))
		}
		for i, p := range s.got {
			if p.TCP.Seq != uint32(i) {
				return // reordered: property demonstrated
			}
		}
	}
	t.Error("no seed in 1..20 produced any reordering at Reorder=0.5")
}

// TestImpairmentDeterminism: equal seeds produce identical traces; a
// different seed produces a different schedule.
func TestImpairmentDeterminism(t *testing.T) {
	run := func(seed int64) []string {
		c := &recordHost{addr: clientAddr}
		s := &recordHost{addr: serverAddr}
		n := New(c, s)
		n.Trace = &Trace{}
		n.SetImpairments(Profile{Loss: 0.3, Duplicate: 0.2, Reorder: 0.3, Jitter: 3 * time.Millisecond},
			rand.New(rand.NewSource(seed)))
		burst(n, c, 30)
		n.Run(0)
		var notes []string
		for _, e := range n.Trace.Entries {
			notes = append(notes, e.Time.String()+" "+e.Note)
		}
		return notes
	}
	a, b, other := run(7), run(7), run(8)
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Error("same seed produced different impairment schedules")
	}
	if strings.Join(a, "\n") == strings.Join(other, "\n") {
		t.Error("different seeds produced identical schedules (rng unused?)")
	}
}

// TestJitterSpreadsDeliveryTimes: with jitter, deliveries stop being
// equally spaced.
func TestJitterSpreadsDeliveryTimes(t *testing.T) {
	c := &recordHost{addr: clientAddr}
	s := &recordHost{addr: serverAddr}
	n := New(c, s)
	n.Trace = &Trace{}
	n.SetImpairments(Profile{Jitter: 10 * time.Millisecond}, rand.New(rand.NewSource(3)))
	burst(n, c, 10)
	n.Run(0)
	times := map[time.Duration]bool{}
	for _, e := range n.Trace.Delivered() {
		times[e.Time] = true
	}
	if len(times) < 3 {
		t.Errorf("jittered deliveries collapse onto %d distinct times", len(times))
	}
}

// TestAfterInterleavesWithPackets: timers fire at their virtual time, in
// order with packet deliveries.
func TestAfterInterleavesWithPackets(t *testing.T) {
	c := &recordHost{addr: clientAddr}
	s := &recordHost{addr: serverAddr}
	n := New(c, s) // 10 hops at 1 ms: delivery at t=1ms (single queue hop)
	var fired []time.Duration
	n.After(500*time.Microsecond, func() { fired = append(fired, n.Clock.Now()) })
	n.After(5*time.Millisecond, func() { fired = append(fired, n.Clock.Now()) })
	n.Send(c, syn(64))
	n.Run(0)
	if len(s.got) != 1 {
		t.Fatal("packet not delivered")
	}
	if len(fired) != 2 {
		t.Fatalf("%d timers fired, want 2", len(fired))
	}
	if fired[0] != 500*time.Microsecond || fired[1] != 5*time.Millisecond {
		t.Errorf("timers fired at %v", fired)
	}
	if n.Clock.Now() != 5*time.Millisecond {
		t.Errorf("clock ended at %v, want 5ms (last timer)", n.Clock.Now())
	}
}

// TestTimerCanRearm: a timer that schedules a successor runs the chain to
// completion within the event limit.
func TestTimerCanRearm(t *testing.T) {
	c := &recordHost{addr: clientAddr}
	s := &recordHost{addr: serverAddr}
	n := New(c, s)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			n.After(time.Millisecond, tick)
		}
	}
	n.After(time.Millisecond, tick)
	if got := n.Run(0); got != 5 {
		t.Errorf("processed %d events, want 5", got)
	}
	if !n.Quiet() {
		t.Error("network not quiet after bounded timer chain")
	}
}
