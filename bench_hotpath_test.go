// Hot-path microbenchmarks feeding BENCH_hotpath.json (make bench-hotpath).
//
// BenchmarkEventQueue (internal/netsim) and BenchmarkCensorProcess here
// guard the two inner loops the fleet harness spends its time in: the event
// queue and Middlebox.Process. Each BenchmarkCensorProcess op drives one
// canned forbidden connection — handshake plus a triggering request —
// straight through a registry censor's Process, with a fresh 4-tuple per op
// so every connection exercises flow-table setup, DPI parse, and teardown
// the way independent fleet connections do; the live=16 rows interleave
// 16 such connections at once.
package geneva

import (
	"math/rand"
	"net/netip"
	"strconv"
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
//
// The <country> rows run one connection at a time. The <country>/live=16
// rows interleave 16 live connections — the committed fleet cell width —
// packet by packet: all 16 SYNs, then the SYN+ACKs, the ACKs and the
// requests, so flow-table lookups among concurrent flows show on their own
// row. Both report ns/op per connection.
func BenchmarkCensorProcess(b *testing.B) {
	for _, def := range eval.Registry() {
		for _, live := range []int{1, 16} {
			name := def.Country
			if live > 1 {
				name += "/live=" + strconv.Itoa(live)
			}
			b.Run(name, func(b *testing.B) {
				c := def.New(rand.New(rand.NewSource(1)))
				conn := newCannedConn(def.Country)
				b.ReportAllocs()
				b.ResetTimer()
				for base := 0; base < b.N; base += live {
					n := min(live, b.N-base)
					now := time.Duration(base) * time.Second
					for phase := range conn.pkts {
						for i := base; i < base+n; i++ {
							conn.aim(i)
							p := conn.pkts[phase]
							dir := netsim.ToServer
							if phase == 1 {
								dir = netsim.ToClient
							}
							c.Process(p, dir, now)
						}
					}
				}
			})
		}
	}
}

// cannedConn is one forbidden connection — handshake plus a triggering
// request — as four reusable packets: SYN, SYN+ACK, ACK, request.
type cannedConn struct {
	pkts [4]*packet.Packet
}

func newCannedConn(country string) cannedConn {
	// The trigger: HTTPS censors that ignore port 80 get a forbidden
	// ClientHello; everyone else a forbidden GET.
	port := uint16(80)
	payload := []byte("GET /?q=ultrasurf HTTP/1.1\r\nHost: www.wikipedia.org\r\n\r\n")
	if country == eval.CountryIndiaJio {
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
	return cannedConn{pkts: [4]*packet.Packet{syn, synack, ack, req}}
}

// aim readdresses the packets to connection i's own 4-tuple.
func (cc cannedConn) aim(i int) {
	cli := netip.AddrFrom4([4]byte{10, 9, byte(i >> 8), byte(i)})
	srv := netip.AddrFrom4([4]byte{10, 8, byte(i >> 24), byte(i >> 16)})
	cport := uint16(32768 + i%16384)
	for j, p := range cc.pkts {
		if j == 1 { // the server's SYN+ACK
			p.IP.Src, p.IP.Dst = srv, cli
			p.TCP.DstPort = cport
			continue
		}
		p.IP.Src, p.IP.Dst = cli, srv
		p.TCP.SrcPort = cport
	}
	// A fleet connection arrives with an unparsed payload; clearing the
	// memo charges each connection the parse, like the first censor on a
	// real path pays it.
	cc.pkts[3].ClearAppView()
}
