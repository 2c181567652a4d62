package tcpstack

import (
	"bytes"
	"testing"

	"geneva/internal/packet"
)

// flowCounter is an outbound hook that counts the packets it sees per flow
// and passes each one through unchanged.
type flowCounter map[packet.Flow]int

func (fc flowCounter) hook(p *packet.Packet) []*packet.Packet {
	fc[p.Flow()]++
	return []*packet.Packet{p}
}

// TestSetOutboundPerConnection pins per-connection strategy delivery: a hook
// installed with SetOutbound sees every packet of its own connection and
// nothing else, a connection without one falls back to Endpoint.Outbound,
// and a recycled Conn struct never carries its previous tenant's hook.
func TestSetOutboundPerConnection(t *testing.T) {
	own, shared := flowCounter{}, flowCounter{}
	var accepted []*Conn
	client, server, n := rig(t, DefaultClient, func(c *Conn) App {
		if len(accepted) == 0 {
			c.SetOutbound(own.hook) // the first connection only
		}
		accepted = append(accepted, c)
		return &testApp{response: []byte("ok"), closeAfter: true}
	})
	client.ReleaseClosed = true
	server.ReleaseClosed = true
	server.Outbound = shared.hook

	var flows []packet.Flow
	for i := 0; i < 2; i++ {
		app := &closerApp{testApp: testApp{request: []byte("req")}}
		app.conn = client.Connect(serverAddr, 80, app)
		flows = append(flows, app.conn.Flow().Reverse())
		n.Run(0)
		if !app.closed || !bytes.Equal(app.data, []byte("ok")) {
			t.Fatalf("connection %d did not complete: closed=%v data=%q", i, app.closed, app.data)
		}
	}
	if len(accepted) != 2 {
		t.Fatalf("server accepted %d connections, want 2", len(accepted))
	}
	if accepted[0] != accepted[1] {
		t.Fatal("the second connection did not reuse the recycled Conn struct; the test needs it to")
	}
	// The first connection's SYN+ACK, response and FIN all went through
	// its own hook and none through the endpoint's.
	if own[flows[0]] < 3 || shared[flows[0]] != 0 {
		t.Errorf("first connection: own hook saw %d packets, endpoint hook %d; want >= 3 and 0",
			own[flows[0]], shared[flows[0]])
	}
	// The second tenant of the same struct set no hook: it falls back to
	// the endpoint's, and the first tenant's hook never sees it.
	if own[flows[1]] != 0 || shared[flows[1]] < 3 {
		t.Errorf("second connection: first tenant's hook saw %d packets, endpoint hook %d; want 0 and >= 3",
			own[flows[1]], shared[flows[1]])
	}
	if len(own) != 1 {
		t.Errorf("own hook saw %d flows, want exactly its connection's", len(own))
	}
}
