package packet

import "testing"

// FuzzParse exercises the IPv4/TCP wire parser with arbitrary bytes: never
// panic, and anything accepted must re-serialize without error.
func FuzzParse(f *testing.F) {
	good := samplePacket()
	wire, _ := good.Wire()
	f.Add(wire)
	f.Add([]byte{})
	f.Add([]byte{0x45})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Parse(data)
		if err != nil {
			return
		}
		if _, err := p.Wire(); err != nil {
			t.Fatalf("accepted packet fails to re-serialize: %v", err)
		}
		// Clone must be independent and serialize identically.
		c := p.Clone()
		w1, _ := p.Wire()
		w2, _ := c.Wire()
		if string(w1) != string(w2) {
			t.Fatal("clone serializes differently")
		}
	})
}

// FuzzTCPUnmarshal exercises the TCP segment parser alone (it sees censor-
// crafted garbage in the simulator).
func FuzzTCPUnmarshal(f *testing.F) {
	src, dst := tcpAddrs()
	seg, _ := (&TCP{SrcPort: 1, DstPort: 2, Flags: FlagSYN}).Marshal(src, dst)
	f.Add(seg)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var tc TCP
		if err := tc.Unmarshal(data); err != nil {
			return
		}
		if _, err := tc.Marshal(src, dst); err != nil {
			t.Fatalf("accepted segment fails to re-serialize: %v", err)
		}
	})
}

// FuzzHTTPRequestMatch locks the censors' single pipelined-HTTP entry point
// to the byte-level walker: for any payload, Packet.MatchHTTPRequests (first
// request from the memoized view, follow-ups walked from its offset) must
// visit exactly the (target, host, hok) sequence VisitHTTPRequests visits on
// the raw payload, stop at the same request, and report the same result.
// stop picks the visit that returns true (beyond the last: none does).
func FuzzHTTPRequestMatch(f *testing.F) {
	f.Add([]byte(reqA+reqB), uint8(9))
	f.Add([]byte(reqA+reqB), uint8(1))
	f.Add([]byte(reqA+reqB+reqA), uint8(2))
	f.Add([]byte(reqA+"garbage"), uint8(9))
	f.Add([]byte("junk\r\n\r\n"+reqA), uint8(0))
	f.Add([]byte("POST /x HTTP/1.1\r\n\r\nGET /y HTTP/1.0\r\nHost: a\r\n\r\n"), uint8(9))
	f.Add([]byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, payload []byte, stop uint8) {
		type visit struct {
			target, host string
			hok          bool
		}
		record := func(seen *[]visit) func(string, string, bool) bool {
			return func(target, host string, hok bool) bool {
				*seen = append(*seen, visit{target, host, hok})
				return len(*seen) == int(stop)+1
			}
		}
		var want, got []visit
		wantOK := VisitHTTPRequests(payload, record(&want))
		p := viewPkt(string(payload))
		gotOK := p.MatchHTTPRequests(record(&got))
		if gotOK != wantOK || len(got) != len(want) {
			t.Fatalf("MatchHTTPRequests = %v after %v, VisitHTTPRequests = %v after %v", gotOK, got, wantOK, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("visit %d: MatchHTTPRequests saw %+v, VisitHTTPRequests %+v", i, got[i], want[i])
			}
		}
	})
}
