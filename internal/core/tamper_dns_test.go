package core

import (
	"testing"
	"testing/quick"

	"geneva/internal/apps"
	"geneva/internal/packet"
)

func dnsPacket(name string) *packet.Packet {
	p := packet.New(cliAddr, srvAddr, 40000, 53)
	p.TCP.Flags = packet.FlagPSH | packet.FlagACK
	p.TCP.Payload = apps.EncodeDNSQuery(name)
	return p
}

func TestTamperDNSQnameReplace(t *testing.T) {
	s := MustParse(`[TCP:flags:PA]-tamper{DNS:qname:replace:benign.example}-| \/ `)
	out := NewEngine(s, rng()).Outbound(dnsPacket("www.wikipedia.org"))
	if len(out) != 1 {
		t.Fatalf("emitted %d packets", len(out))
	}
	name, ok := packet.ParseDNSQueryName(out[0].TCP.Payload)
	if !ok || name != "benign.example" {
		t.Errorf("rewritten qname = %q, %v", name, ok)
	}
	// The length prefix must have been re-fixed.
	got := int(out[0].TCP.Payload[0])<<8 | int(out[0].TCP.Payload[1])
	if got != len(out[0].TCP.Payload)-2 {
		t.Errorf("length prefix %d, payload %d", got, len(out[0].TCP.Payload)-2)
	}
}

func TestTamperDNSQnameCorruptKeepsStructure(t *testing.T) {
	s := MustParse(`[TCP:flags:PA]-tamper{DNS:qname:corrupt}-| \/ `)
	out := NewEngine(s, rng()).Outbound(dnsPacket("www.wikipedia.org"))
	name, ok := packet.ParseDNSQueryName(out[0].TCP.Payload)
	if !ok {
		t.Fatal("corrupted message no longer parses; corruption must keep label structure")
	}
	if name == "www.wikipedia.org" {
		t.Error("qname unchanged after corrupt")
	}
	if len(name) != len("www.wikipedia.org") {
		t.Errorf("label lengths changed: %q", name)
	}
}

func TestTamperDNSIdReplace(t *testing.T) {
	s := MustParse(`[TCP:flags:PA]-tamper{DNS:id:replace:257}-| \/ `)
	out := NewEngine(s, rng()).Outbound(dnsPacket("example.com"))
	msg := out[0].TCP.Payload[2:]
	if got := int(msg[0])<<8 | int(msg[1]); got != 257 {
		t.Errorf("id = %d, want 257", got)
	}
}

func TestTamperDNSIgnoresNonDNSPayloads(t *testing.T) {
	s := MustParse(`[TCP:flags:PA]-tamper{DNS:qname:corrupt}-| \/ `)
	p := packet.New(cliAddr, srvAddr, 40000, 80)
	p.TCP.Flags = packet.FlagPSH | packet.FlagACK
	p.TCP.Payload = []byte("GET / HTTP/1.1\r\n\r\n")
	before := append([]byte(nil), p.TCP.Payload...)
	out := NewEngine(s, rng()).Outbound(p)
	if string(out[0].TCP.Payload) != string(before) {
		t.Error("non-DNS payload modified")
	}
}

func TestTamperDNSNeverPanicsProperty(t *testing.T) {
	s := MustParse(`[TCP:flags:PA]-tamper{DNS:qname:corrupt}(tamper{DNS:id:corrupt}(tamper{DNS:qtype:corrupt},),)-| \/ `)
	eng := NewEngine(s, rng())
	f := func(payload []byte) bool {
		p := packet.New(cliAddr, srvAddr, 40000, 53)
		p.TCP.Flags = packet.FlagPSH | packet.FlagACK
		p.TCP.Payload = payload
		out := eng.Outbound(p)
		return len(out) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}
