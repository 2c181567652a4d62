package tcpstack

import (
	"bytes"
	"math/rand"
	"testing"

	"geneva/internal/netsim"
	"geneva/internal/packet"
)

func TestSeqHelpersWraparound(t *testing.T) {
	const hi, lo = uint32(0xFFFFFFF0), uint32(0x10)
	if !seqLT(hi, lo) || seqLT(lo, hi) {
		t.Error("seqLT wrong across the wrap: 0xFFFFFFF0 < 0x10 in sequence space")
	}
	if !seqGT(lo, hi) || seqGT(hi, lo) {
		t.Error("seqGT wrong across the wrap")
	}
	if !seqLEQ(hi, hi) || !seqGEQ(lo, lo) {
		t.Error("seqLEQ/seqGEQ not reflexive")
	}
	if !seqLEQ(hi, lo) || !seqGEQ(lo, hi) {
		t.Error("seqLEQ/seqGEQ wrong across the wrap")
	}
	// RST acceptance window straddling the wrap: [0xFFFFFFF0, 0xFFFF+0xFFFFFFF0).
	if !seqInWindow(5, hi, 65535) {
		t.Error("seq just past the wrap not in a window starting before it")
	}
	if seqInWindow(hi-1, hi, 65535) {
		t.Error("seq below window start accepted")
	}
	// ACK acceptability with una below the wrap and nxt above it.
	if !ackAcceptable(0xFFFFFFF8, 4, 16) {
		t.Error("ACK between wrapped una and nxt rejected")
	}
	if ackAcceptable(0xFFFFFFF8, 20, 16) {
		t.Error("ACK beyond nxt accepted")
	}
	if ackAcceptable(0xFFFFFFF8, 0xFFFFFFF0, 16) {
		t.Error("stale ACK below una accepted")
	}
}

// fixedISN is a rand.Source whose every draw makes rand.Uint32 return the
// same chosen value — the lever for pinning an endpoint's ISN at the edge of
// the sequence space. (Endpoint draws Intn for the ephemeral port first;
// that draw derives from the same constant and is harmless.)
type fixedISN uint32

func (s fixedISN) Int63() int64 { return int64(s) << 31 }
func (s fixedISN) Seed(int64)   {}

// wrapRig builds a client/server pair whose ISNs sit just below 2^32, so the
// very first data segments cross the wrap.
func wrapRig(clientISN, serverISN uint32, boxes ...netsim.Middlebox) (*Endpoint, *netsim.Network, *testApp, *testApp) {
	client := NewEndpoint(clientAddr, DefaultClient, rand.New(fixedISN(clientISN)))
	server := NewEndpoint(serverAddr, DefaultServer, rand.New(fixedISN(serverISN)))
	client.Retransmit = true
	server.Retransmit = true
	srvApp := &testApp{response: []byte("a response long enough to wrap"), closeAfter: true}
	server.NewServerApp = func(*Conn) App { return srvApp }
	server.Listen(80)
	n := netsim.New(client, server, boxes...)
	client.Attach(n)
	server.Attach(n)
	cliApp := &testApp{request: []byte("a request crossing the wrap")}
	return client, n, cliApp, srvApp
}

// TestWraparoundHandshakeAndData drives a connection whose client ISN is
// 0xFFFFFFF0 and server ISN 0xFFFFFFFA through handshake and a full
// request/response: both directions' sequence numbers cross 2^32 inside the
// first data segment. Any non-modular comparison in the path (window checks,
// ACK acceptability) breaks this transfer.
func TestWraparoundHandshakeAndData(t *testing.T) {
	client, n, cliApp, srvApp := wrapRig(0xFFFFFFF0, 0xFFFFFFFA)
	conn := client.Connect(serverAddr, 80, cliApp)
	n.Run(0)
	if conn.iss != 0xFFFFFFF0 {
		t.Fatalf("scripted rng produced ISS %#x, want 0xFFFFFFF0 (rand internals changed?)", conn.iss)
	}
	if !cliApp.established || !srvApp.established {
		t.Fatal("handshake did not complete with near-wrap ISNs")
	}
	if !bytes.Equal(srvApp.data, cliApp.request) {
		t.Errorf("server got %q, want %q", srvApp.data, cliApp.request)
	}
	if !bytes.Equal(cliApp.data, []byte("a response long enough to wrap")) {
		t.Errorf("client got %q", cliApp.data)
	}
	if conn.ResetReceived {
		t.Error("connection reset while crossing the wrap")
	}
	// Prove the test actually crossed the wrap: sndNxt is numerically below
	// the ISS only if the sequence numbers wrapped.
	if conn.sndNxt >= conn.iss {
		t.Errorf("sndNxt %#x did not wrap past ISS %#x; request too short for the edge case", conn.sndNxt, conn.iss)
	}
}

// TestWraparoundRetransmission drops the client's first data segment, whose
// payload spans the wrap, and checks the RTO path (trackRtx/ackRtx and their
// sequence comparisons) recovers it.
func TestWraparoundRetransmission(t *testing.T) {
	box := &dropFirst{dir: netsim.ToServer, flags: packet.FlagPSH, payload: true}
	client, n, cliApp, srvApp := wrapRig(0xFFFFFFF0, 0xFFFFFFFA, box)
	conn := client.Connect(serverAddr, 80, cliApp)
	n.Run(0)
	if !box.dropped {
		t.Fatal("test box never saw a data segment")
	}
	if !bytes.Equal(srvApp.data, cliApp.request) {
		t.Errorf("server got %q after retransmission, want %q", srvApp.data, cliApp.request)
	}
	if len(conn.rtxQ) != 0 {
		t.Errorf("%d segments still queued for retransmission after full ACK", len(conn.rtxQ))
	}
	if conn.sndNxt >= conn.iss {
		t.Errorf("sndNxt %#x did not wrap past ISS %#x", conn.sndNxt, conn.iss)
	}
}

// TestWraparoundSynRetransmission pins the extreme edge: ISS 0xFFFFFFFF, so
// the SYN itself consumes the last sequence number and its acknowledgment is
// 0 — the wrapped ACK must still clear the retransmission queue.
func TestWraparoundSynRetransmission(t *testing.T) {
	box := &dropFirst{dir: netsim.ToServer, flags: packet.FlagSYN}
	client, n, cliApp, srvApp := wrapRig(0xFFFFFFFF, 0xFFFFFFFA, box)
	conn := client.Connect(serverAddr, 80, cliApp)
	n.Run(0)
	if conn.iss != 0xFFFFFFFF {
		t.Fatalf("scripted rng produced ISS %#x, want 0xFFFFFFFF", conn.iss)
	}
	if !box.dropped {
		t.Fatal("test box never saw the SYN")
	}
	if !cliApp.established || !srvApp.established {
		t.Fatal("handshake did not recover from a dropped SYN at the wrap")
	}
	if !bytes.Equal(srvApp.data, cliApp.request) {
		t.Errorf("server got %q", srvApp.data)
	}
}
