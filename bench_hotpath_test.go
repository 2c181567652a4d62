// Hot-path microbenchmarks feeding BENCH_hotpath.json (make bench-hotpath).
//
// BenchmarkEventQueue (internal/netsim) and BenchmarkCensorProcess here
// guard the two inner loops the fleet harness spends its time in: the event
// queue and Middlebox.Process. Each BenchmarkCensorProcess op drives one
// canned forbidden connection — handshake plus a triggering request —
// straight through a registry censor's Process, with a fresh 4-tuple per op
// so every connection exercises flow-table setup, DPI parse, and teardown
// the way independent fleet connections do.
package geneva

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"geneva/internal/apps"
	"geneva/internal/eval"
	"geneva/internal/netsim"
	"geneva/internal/packet"
)

// BenchmarkCensorProcess measures the per-connection cost of each registry
// censor's Process path. The client address and server address both vary
// per op (no 4-tuple ever repeats, matching the monotonic ephemeral ports
// of real runs), and the clock advances one second per op so residual
// censors (China, Turkmenistan) sweep their poison windows instead of
// accumulating them.
func BenchmarkCensorProcess(b *testing.B) {
	for _, def := range eval.Registry() {
		b.Run(def.Country, func(b *testing.B) {
			c := def.New(rand.New(rand.NewSource(1)))

			// The trigger: HTTPS censors that ignore port 80 get a
			// forbidden ClientHello; everyone else a forbidden GET.
			port := uint16(80)
			payload := []byte("GET /?q=ultrasurf HTTP/1.1\r\nHost: www.wikipedia.org\r\n\r\n")
			if def.Country == eval.CountryIndiaJio {
				port = 443
				payload = apps.EncodeClientHello("youtube.com")
			}

			syn := packet.New(netip.IPv4Unspecified(), netip.IPv4Unspecified(), 0, port)
			syn.TCP.Flags = packet.FlagSYN
			syn.TCP.Seq = 1000
			synack := packet.New(netip.IPv4Unspecified(), netip.IPv4Unspecified(), port, 0)
			synack.TCP.Flags = packet.FlagSYN | packet.FlagACK
			synack.TCP.Seq = 5000
			synack.TCP.Ack = 1001
			ack := packet.New(netip.IPv4Unspecified(), netip.IPv4Unspecified(), 0, port)
			ack.TCP.Flags = packet.FlagACK
			ack.TCP.Seq = 1001
			ack.TCP.Ack = 5001
			req := packet.New(netip.IPv4Unspecified(), netip.IPv4Unspecified(), 0, port)
			req.TCP.Flags = packet.FlagPSH | packet.FlagACK
			req.TCP.Seq = 1001
			req.TCP.Ack = 5001
			req.TCP.Payload = payload

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cli := netip.AddrFrom4([4]byte{10, 9, byte(i >> 8), byte(i)})
				srv := netip.AddrFrom4([4]byte{10, 8, byte(i >> 24), byte(i >> 16)})
				cport := uint16(32768 + i%16384)
				now := time.Duration(i) * time.Second
				for _, p := range []*packet.Packet{syn, ack, req} {
					p.IP.Src, p.IP.Dst = cli, srv
					p.TCP.SrcPort = cport
				}
				synack.IP.Src, synack.IP.Dst = srv, cli
				synack.TCP.DstPort = cport
				// A fleet connection arrives with an unparsed payload;
				// clearing the memo charges this op the parse, like the
				// first censor on a real path pays it.
				req.ClearAppView()

				c.Process(syn, netsim.ToServer, now)
				c.Process(synack, netsim.ToClient, now)
				c.Process(ack, netsim.ToServer, now)
				c.Process(req, netsim.ToServer, now)
			}
		})
	}
}
