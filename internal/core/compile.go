package core

import (
	"strconv"

	"geneva/internal/packet"
)

// Matcher is a Trigger lowered to a typed comparison: the string fields are
// interpreted once, at compile time, so matching a packet is a field load
// and an integer compare instead of per-packet parsing and formatting.
type Matcher func(*packet.Packet) bool

func matchNone(*packet.Packet) bool { return false }

// Compile lowers the trigger into a Matcher. A trigger demands an exact
// match on its one field: a flags value matches only when it is written in
// canonical FSRPAU order (the FlagsString form), so a reordered or repeated
// letter never matches; a non-numeric value on a numeric field never
// matches; an unknown proto/field never matches.
func (tr Trigger) Compile() Matcher {
	switch tr.Proto {
	case "TCP":
		switch tr.Field {
		case "flags":
			want, err := packet.ParseFlags(tr.Value)
			if err != nil || packet.FlagsString(want) != tr.Value {
				return matchNone
			}
			return func(p *packet.Packet) bool { return p.TCP.Flags == want }
		case "sport":
			return compileNum(tr.Value, func(p *packet.Packet) uint64 { return uint64(p.TCP.SrcPort) })
		case "dport":
			return compileNum(tr.Value, func(p *packet.Packet) uint64 { return uint64(p.TCP.DstPort) })
		case "seq":
			return compileNum(tr.Value, func(p *packet.Packet) uint64 { return uint64(p.TCP.Seq) })
		case "ack":
			return compileNum(tr.Value, func(p *packet.Packet) uint64 { return uint64(p.TCP.Ack) })
		case "window":
			return compileNum(tr.Value, func(p *packet.Packet) uint64 { return uint64(p.TCP.Window) })
		}
	case "IP", "IPv4":
		switch tr.Field {
		case "ttl":
			return compileNum(tr.Value, func(p *packet.Packet) uint64 { return uint64(p.IP.TTL) })
		case "version":
			return compileNum(tr.Value, func(p *packet.Packet) uint64 { return uint64(p.IP.Version) })
		}
	}
	return matchNone
}

func compileNum(value string, field func(*packet.Packet) uint64) Matcher {
	want, err := strconv.ParseUint(value, 10, 64)
	if err != nil {
		return matchNone
	}
	return func(p *packet.Packet) bool { return field(p) == want }
}

// compiledRule pairs a lowered trigger with its action tree.
type compiledRule struct {
	match  Matcher
	action *Action
}

func compileRules(rules []Rule) []compiledRule {
	if len(rules) == 0 {
		return nil
	}
	out := make([]compiledRule, len(rules))
	for i, r := range rules {
		out[i] = compiledRule{match: r.Trigger.Compile(), action: r.Action}
	}
	return out
}
