package core

import (
	"strings"
	"testing"

	"geneva/internal/packet"
)

func TestTriggerNumericFields(t *testing.T) {
	p := synAck() // 80 -> 40000, seq 1000, ack 501, win 64240
	cases := []struct {
		tr   Trigger
		want bool
	}{
		{Trigger{Proto: "TCP", Field: "sport", Value: "80"}, true},
		{Trigger{Proto: "TCP", Field: "sport", Value: "81"}, false},
		{Trigger{Proto: "TCP", Field: "dport", Value: "40000"}, true},
		{Trigger{Proto: "TCP", Field: "seq", Value: "1000"}, true},
		{Trigger{Proto: "TCP", Field: "ack", Value: "501"}, true},
		{Trigger{Proto: "TCP", Field: "window", Value: "64240"}, true},
		{Trigger{Proto: "TCP", Field: "window", Value: "ten"}, false},
		{Trigger{Proto: "IP", Field: "ttl", Value: "64"}, true},
		{Trigger{Proto: "IP", Field: "version", Value: "0"}, true}, // unset until marshal
		{Trigger{Proto: "IPv4", Field: "ttl", Value: "64"}, true},
		{Trigger{Proto: "IP", Field: "nosuch", Value: "1"}, false},
		// Flags match only in canonical FSRPAU order.
		{Trigger{Proto: "TCP", Field: "flags", Value: "SA"}, true},
		{Trigger{Proto: "TCP", Field: "flags", Value: "AS"}, false},
		{Trigger{Proto: "TCP", Field: "flags", Value: "SAA"}, false},
		{Trigger{Proto: "UDP", Field: "sport", Value: "80"}, false},
	}
	for _, c := range cases {
		if got := c.tr.Matches(p); got != c.want {
			t.Errorf("%s.Matches = %v, want %v", c.tr, got, c.want)
		}
	}
}

func TestActionStringAllKinds(t *testing.T) {
	a := Duplicate(
		Fragment("tcp", 4, true, Send(), Drop()),
		Tamper("TCP", "seq", "corrupt", "", nil),
	)
	s := a.String()
	for _, want := range []string{"duplicate", "fragment{tcp:4:true}", "send", "drop", "tamper{TCP:seq:corrupt}"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	if ActionKind(99).String() == "" {
		t.Error("unknown kind should still render")
	}
	for _, k := range []ActionKind{ActSend, ActDrop, ActDuplicate, ActTamper, ActFragment} {
		if k.String() == "" {
			t.Errorf("kind %d has no name", k)
		}
	}
}

func TestTamperTCPRemainingFields(t *testing.T) {
	apply := func(dsl string) *packet.Packet {
		out := NewEngine(MustParse(dsl), rng()).Outbound(synAck())
		if len(out) != 1 {
			t.Fatalf("%s emitted %d packets", dsl, len(out))
		}
		return out[0]
	}
	if p := apply(`[TCP:flags:SA]-tamper{TCP:sport:replace:8080}-| \/ `); p.TCP.SrcPort != 8080 {
		t.Errorf("sport = %d", p.TCP.SrcPort)
	}
	if p := apply(`[TCP:flags:SA]-tamper{TCP:dport:replace:9}-| \/ `); p.TCP.DstPort != 9 {
		t.Errorf("dport = %d", p.TCP.DstPort)
	}
	if p := apply(`[TCP:flags:SA]-tamper{TCP:seq:replace:7}-| \/ `); p.TCP.Seq != 7 {
		t.Errorf("seq = %d", p.TCP.Seq)
	}
	if p := apply(`[TCP:flags:SA]-tamper{TCP:urgptr:replace:99}-| \/ `); p.TCP.Urgent != 99 {
		t.Errorf("urgptr = %d", p.TCP.Urgent)
	}
	if p := apply(`[TCP:flags:SA]-tamper{TCP:dataofs:replace:12}-| \/ `); p.TCP.DataOff != 12 || !p.TCP.RawDataOff {
		t.Errorf("dataofs = %d raw=%v", p.TCP.DataOff, p.TCP.RawDataOff)
	}
	if p := apply(`[TCP:flags:SA]-tamper{TCP:seq:corrupt}-| \/ `); p.TCP.Seq == 1000 {
		t.Error("seq not corrupted")
	}
	if p := apply(`[TCP:flags:SA]-tamper{TCP:flags:corrupt}-| \/ `); p.TCP.Flags >= 64 {
		t.Errorf("corrupt flags produced %#x", p.TCP.Flags)
	}
	// Invalid replacements are no-ops, never errors.
	if p := apply(`[TCP:flags:SA]-tamper{TCP:seq:replace:zebra}-| \/ `); p.TCP.Seq != 1000 {
		t.Error("bad numeric replacement changed the field")
	}
	if p := apply(`[TCP:flags:SA]-tamper{TCP:flags:replace:ZZ}-| \/ `); p.TCP.Flags != packet.FlagSYN|packet.FlagACK {
		t.Error("bad flags replacement changed the field")
	}
	if p := apply(`[TCP:flags:SA]-tamper{TCP:nosuchfield:corrupt}-| \/ `); p.TCP.Seq != 1000 {
		t.Error("unknown field tamper had an effect")
	}
}

func TestTamperOptionsVariants(t *testing.T) {
	apply := func(dsl string) *packet.Packet {
		return NewEngine(MustParse(dsl), rng()).Outbound(synAck())[0]
	}
	// Replace MSS numerically.
	p := apply(`[TCP:flags:SA]-tamper{TCP:options-mss:replace:512}-| \/ `)
	if o := p.TCP.Option(packet.OptMSS); o == nil || o.Data[0] != 2 || o.Data[1] != 0 {
		t.Errorf("mss option = %+v", o)
	}
	// Corrupt wscale.
	p = apply(`[TCP:flags:SA]-tamper{TCP:options-wscale:corrupt}-| \/ `)
	if p.TCP.Option(packet.OptWScale) == nil {
		t.Error("corrupt removed the option instead of randomizing it")
	}
	// Add sackok (zero-width option gets string data fallback).
	p = apply(`[TCP:flags:SA]-tamper{TCP:options-sackok:replace:}-| \/ `)
	if p.TCP.Option(packet.OptSACKOK) != nil {
		t.Error("empty replace should remove/omit the option")
	}
	// Timestamp and friends.
	p = apply(`[TCP:flags:SA]-tamper{TCP:options-timestamp:replace:1}-| \/ `)
	if o := p.TCP.Option(packet.OptTimestamp); o == nil || len(o.Data) != 8 {
		t.Errorf("timestamp option = %+v", o)
	}
	p = apply(`[TCP:flags:SA]-tamper{TCP:options-uto:corrupt}-| \/ `)
	if p.TCP.Option(packet.OptUTO) == nil {
		t.Error("uto corrupt produced nothing")
	}
	p = apply(`[TCP:flags:SA]-tamper{TCP:options-altchksum:replace:2}-| \/ `)
	if p.TCP.Option(packet.OptAltChksum) == nil {
		t.Error("altchksum replace produced nothing")
	}
	p = apply(`[TCP:flags:SA]-tamper{TCP:options-md5header:corrupt}-| \/ `)
	if o := p.TCP.Option(packet.OptMD5); o == nil || len(o.Data) != 16 {
		t.Errorf("md5 option = %+v", o)
	}
}

func TestTamperIPRemainingFields(t *testing.T) {
	apply := func(dsl string) *packet.Packet {
		return NewEngine(MustParse(dsl), rng()).Outbound(synAck())[0]
	}
	if p := apply(`[TCP:flags:SA]-tamper{IP:tos:replace:16}-| \/ `); p.IP.TOS != 16 {
		t.Errorf("tos = %d", p.IP.TOS)
	}
	if p := apply(`[TCP:flags:SA]-tamper{IP:ident:replace:777}-| \/ `); p.IP.ID != 777 {
		t.Errorf("ident = %d", p.IP.ID)
	}
	if p := apply(`[TCP:flags:SA]-tamper{IP:len:replace:9999}-| \/ `); p.IP.Length != 9999 || !p.IP.RawLength {
		t.Errorf("len = %d raw=%v", p.IP.Length, p.IP.RawLength)
	}
	if p := apply(`[TCP:flags:SA]-tamper{IP:version:replace:6}-| \/ `); p.IP.Version != 6 {
		t.Errorf("version = %d", p.IP.Version)
	}
	if p := apply(`[TCP:flags:SA]-tamper{IP:flags:replace:DF}-| \/ `); p.IP.Flags != packet.IPv4DontFrag {
		t.Errorf("flags = %d", p.IP.Flags)
	}
	if p := apply(`[TCP:flags:SA]-tamper{IP:flags:replace:MF}-| \/ `); p.IP.Flags != packet.IPv4MoreFrag {
		t.Errorf("flags = %d", p.IP.Flags)
	}
	if p := apply(`[TCP:flags:SA]-tamper{IP:flags:replace:}-| \/ `); p.IP.Flags != 0 {
		t.Errorf("flags = %d", p.IP.Flags)
	}
	if p := apply(`[TCP:flags:SA]-tamper{IP:flags:replace:XX}-| \/ `); p.IP.Flags != 0 {
		t.Error("bad IP flags value had an effect")
	}
	if p := apply(`[TCP:flags:SA]-tamper{IP:frag:replace:5}-| \/ `); p.IP.FragOff != 5 {
		t.Errorf("frag = %d", p.IP.FragOff)
	}
	if p := apply(`[TCP:flags:SA]-tamper{IP:ttl:corrupt}-| \/ `); p.IP.TTL == 64 {
		// One-in-256 false positive; accept either but exercise the path.
		t.Log("ttl corrupt landed on the original value")
	}
	if p := apply(`[TCP:flags:SA]-tamper{IP:tos:corrupt}(tamper{IP:version:corrupt}(tamper{IP:flags:corrupt},),)-| \/ `); p == nil {
		t.Fatal("corrupt chain failed")
	}
	if p := apply(`[TCP:flags:SA]-tamper{IP:nosuch:corrupt}-| \/ `); p.IP.TTL != 64 {
		t.Error("unknown IP field tamper had an effect")
	}
}

func TestFragmentOnTinyPayloadFallsThrough(t *testing.T) {
	s := MustParse(`[TCP:flags:SA]-fragment{tcp:4:true}(drop,)-| \/ `)
	// SYN+ACK has no payload: fragment is a no-op and the LEFT branch
	// applies to the whole packet.
	out := NewEngine(s, rng()).Outbound(synAck())
	if len(out) != 0 {
		t.Errorf("expected the left branch (drop) to consume the unfragmentable packet, got %d", len(out))
	}
}
