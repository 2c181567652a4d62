package iran

import (
	"net/netip"
	"testing"
	"time"

	"geneva/internal/apps"
	"geneva/internal/censor"
	"geneva/internal/netsim"
	"geneva/internal/packet"
)

var (
	cli = netip.MustParseAddr("10.1.0.2")
	srv = netip.MustParseAddr("198.51.100.9")
)

func httpReq(host string, port uint16) *packet.Packet {
	p := packet.New(cli, srv, 40000, port)
	p.TCP.Flags = packet.FlagPSH | packet.FlagACK
	p.TCP.Payload = []byte("GET / HTTP/1.1\r\nHost: " + host + "\r\n\r\n")
	return p
}

func TestBlackholesForbiddenHTTP(t *testing.T) {
	ir := New(censor.Default(), nil)
	v := ir.Process(httpReq("blocked.example", 80), netsim.ToServer, 0)
	if !v.Drop {
		t.Fatal("offending packet not dropped")
	}
	if len(v.InjectToClient)+len(v.InjectToServer) != 0 {
		t.Error("Iran injects nothing; it blackholes")
	}
	// Any later packet in the flow is dropped too...
	benign := httpReq("allowed.example", 80)
	if v := ir.Process(benign, netsim.ToServer, 30*time.Second); !v.Drop {
		t.Error("flow not blackholed 30s later")
	}
	// ...until the minute passes.
	if v := ir.Process(benign, netsim.ToServer, 61*time.Second); v.Drop {
		t.Error("blackhole outlived its 60s window")
	}
	if ir.CensoredCount() != 1 {
		t.Errorf("CensoredCount = %d", ir.CensoredCount())
	}
}

func TestBlackholesForbiddenSNI(t *testing.T) {
	ir := New(censor.Default(), nil)
	p := packet.New(cli, srv, 40000, 443)
	p.TCP.Flags = packet.FlagPSH | packet.FlagACK
	p.TCP.Payload = apps.EncodeClientHello("youtube.com")
	if v := ir.Process(p, netsim.ToServer, 0); !v.Drop {
		t.Error("forbidden SNI not blackholed")
	}
}

func TestSegmentedClientHelloPasses(t *testing.T) {
	ir := New(censor.Default(), nil)
	hello := apps.EncodeClientHello("youtube.com")
	for _, cut := range []int{10, 40, len(hello) - 5} {
		p1 := packet.New(cli, srv, 41000, 443)
		p1.TCP.Flags = packet.FlagPSH | packet.FlagACK
		p1.TCP.Payload = hello[:cut]
		p2 := packet.New(cli, srv, 41000, 443)
		p2.TCP.Flags = packet.FlagPSH | packet.FlagACK
		p2.TCP.Payload = hello[cut:]
		if v := ir.Process(p1, netsim.ToServer, 0); v.Drop {
			t.Errorf("cut %d: first fragment blackholed", cut)
		}
		if v := ir.Process(p2, netsim.ToServer, 0); v.Drop {
			t.Errorf("cut %d: second fragment blackholed", cut)
		}
	}
}

func TestNonDefaultPortsUncensored(t *testing.T) {
	ir := New(censor.Default(), nil)
	if v := ir.Process(httpReq("blocked.example", 8080), netsim.ToServer, 0); v.Drop {
		t.Error("censored on a non-default port")
	}
	p := packet.New(cli, srv, 40000, 8443)
	p.TCP.Flags = packet.FlagPSH | packet.FlagACK
	p.TCP.Payload = apps.EncodeClientHello("youtube.com")
	if v := ir.Process(p, netsim.ToServer, 0); v.Drop {
		t.Error("censored TLS on a non-default port")
	}
}

func TestServerDirectionUntouched(t *testing.T) {
	ir := New(censor.Default(), nil)
	ir.Process(httpReq("blocked.example", 80), netsim.ToServer, 0) // blackhole the flow
	resp := packet.New(srv, cli, 80, 40000)
	resp.TCP.Flags = packet.FlagPSH | packet.FlagACK
	resp.TCP.Payload = []byte("HTTP/1.1 200 OK\r\n\r\n")
	if v := ir.Process(resp, netsim.ToClient, time.Second); v.Drop {
		t.Error("server->client packets should pass (only the client flow is blackholed)")
	}
}

// Keep-alive pipelining: a forbidden request coalesced behind a benign one
// in a single packet used to pass — the DPI only ever matched the Host of
// the first request in a payload.
func TestPipelinedForbiddenRequestBlackholed(t *testing.T) {
	ir := New(censor.Default(), nil)
	p := packet.New(cli, srv, 40000, 80)
	p.TCP.Flags = packet.FlagPSH | packet.FlagACK
	p.TCP.Seq = 1000
	p.TCP.Ack = 2000
	p.TCP.Payload = []byte("GET /index.html HTTP/1.1\r\nHost: example.com\r\nAccept: */*\r\n\r\n" +
		"GET / HTTP/1.1\r\nHost: blocked.example\r\n\r\n")
	if v := ir.Process(p, netsim.ToServer, 0); !v.Drop {
		t.Fatal("pipelined forbidden request not blackholed")
	}
	if ir.CensoredCount() != 1 {
		t.Errorf("Censored = %d, want 1", ir.CensoredCount())
	}
}

// TestBlackholeExpiryBoundary pins the blackhole's exclusive end: the flow
// is still dropped one tick before start+window and passes at exactly
// start+window (unlike the residual windows, which include their expiry).
func TestBlackholeExpiryBoundary(t *testing.T) {
	const start = 5 * time.Second
	ir := New(censor.Default(), nil)
	if v := ir.Process(httpReq("blocked.example", 80), netsim.ToServer, start); !v.Drop {
		t.Fatal("offending packet not blackholed")
	}
	benign := httpReq("allowed.example", 80)
	if v := ir.Process(benign, netsim.ToServer, start+blackholeDuration-time.Nanosecond); !v.Drop {
		t.Error("flow passed one tick before the blackhole ends")
	}
	if v := ir.Process(benign, netsim.ToServer, start+blackholeDuration); v.Drop {
		t.Error("flow still dropped at exactly start+window")
	}
}

// TestBlackholeTableBoundedGrowth blackholes many distinct flows, spaced
// beyond the window, and checks the table does not keep the expired
// entries of flows that never send again.
func TestBlackholeTableBoundedGrowth(t *testing.T) {
	ir := New(censor.Default(), nil)
	const rounds = 50
	for i := 0; i < rounds; i++ {
		p := httpReq("blocked.example", 80)
		p.TCP.SrcPort = uint16(40000 + i) // a distinct flow per round
		ir.Process(p, netsim.ToServer, time.Duration(i)*100*time.Second)
	}
	if ir.Censored != rounds {
		t.Fatalf("censored %d flows, want %d", ir.Censored, rounds)
	}
	if got := ir.blackholes.Len(); got > 1 {
		t.Errorf("blackhole table holds %d entries after %d expired-and-silent flows, want <= 1", got, rounds)
	}
}
