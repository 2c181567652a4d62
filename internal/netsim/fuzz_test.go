package netsim

import (
	"math/rand"
	"testing"
	"time"
)

// FuzzImpairments hammers the impairment scheduler with arbitrary profiles
// and traffic shapes: it must never panic, never invent packets (deliveries
// ≤ sends × 2 with duplication), and the trace must stay causally ordered
// (timestamps never run backwards).
func FuzzImpairments(f *testing.F) {
	f.Add(int64(1), uint16(200), uint16(100), uint16(300), uint16(5), uint8(20))
	f.Add(int64(7), uint16(1000), uint16(0), uint16(0), uint16(0), uint8(5))
	f.Add(int64(42), uint16(0), uint16(1000), uint16(1000), uint16(50), uint8(40))
	f.Fuzz(func(t *testing.T, seed int64, loss, dup, reorder, jitterMs uint16, npkts uint8) {
		prof := Profile{
			Loss:      float64(loss%1001) / 1000,
			Duplicate: float64(dup%1001) / 1000,
			Reorder:   float64(reorder%1001) / 1000,
			Jitter:    time.Duration(jitterMs%100) * time.Millisecond,
		}
		c := &recordHost{addr: clientAddr}
		s := &recordHost{addr: serverAddr}
		n := New(c, s)
		n.Trace = &Trace{}
		n.SetImpairments(prof, rand.New(rand.NewSource(seed)))
		sends := int(npkts)%64 + 1
		for i := 0; i < sends; i++ {
			p := syn(64)
			p.TCP.Seq = uint32(i)
			if i%2 == 0 {
				n.Send(c, p)
			} else {
				p.IP.Src, p.IP.Dst = serverAddr, clientAddr
				n.Send(s, p)
			}
		}
		// A couple of timers riding alongside, like retransmission would.
		n.After(3*time.Millisecond, func() {})
		n.After(time.Millisecond, func() { n.Send(c, syn(64)) })
		if n.Run(10000) >= 10000 {
			t.Fatal("impairment scheduler did not quiesce")
		}
		if got := len(c.got) + len(s.got); got > 2*(sends+1) {
			t.Fatalf("%d deliveries from %d sends: scheduler invented packets", got, sends+1)
		}
		last := time.Duration(-1)
		for i, e := range n.Trace.Entries {
			if e.Time < last {
				t.Fatalf("trace entry %d at %v precedes predecessor at %v: causality violated", i, e.Time, last)
			}
			last = e.Time
		}
	})
}
