package core

import (
	"math/rand"
	"strings"

	"geneva/internal/packet"
)

// Trigger selects which packets an action tree applies to. Geneva triggers
// demand an exact match on one field: [TCP:flags:SA] matches SYN+ACK
// packets and nothing else.
type Trigger struct {
	Proto string // "TCP" or "IP"
	Field string // e.g. "flags", "dport", "ttl"
	Value string
}

// Matches reports whether pkt matches the trigger: the compiled matcher,
// built for a single use.
func (tr Trigger) Matches(pkt *packet.Packet) bool { return tr.Compile()(pkt) }

func (tr Trigger) String() string {
	var b strings.Builder
	b.Grow(len(tr.Proto) + len(tr.Field) + len(tr.Value) + 4)
	tr.appendTo(&b)
	return b.String()
}

func (tr Trigger) appendTo(b *strings.Builder) {
	b.WriteByte('[')
	b.WriteString(tr.Proto)
	b.WriteByte(':')
	b.WriteString(tr.Field)
	b.WriteByte(':')
	b.WriteString(tr.Value)
	b.WriteByte(']')
}

// Rule is one trigger with its action tree.
type Rule struct {
	Trigger Trigger
	Action  *Action
}

func (r Rule) String() string {
	var b strings.Builder
	r.appendTo(&b)
	return b.String()
}

func (r Rule) appendTo(b *strings.Builder) {
	r.Trigger.appendTo(b)
	b.WriteByte('-')
	b.WriteString(r.Action.String())
	b.WriteString("-|")
}

// Clone deep-copies the rule.
func (r Rule) Clone() Rule {
	return Rule{Trigger: r.Trigger, Action: r.Action.Clone()}
}

// Strategy is a full Geneva strategy: rule forests for the outbound and
// inbound directions, relative to the host the engine runs on.
type Strategy struct {
	Outbound []Rule
	Inbound  []Rule

	// str memoizes String(): the canonical text is rebuilt only after
	// Invalidate. A plain field (not a lock) on purpose — strategies are
	// copied by value on some mutation paths, and every concurrent reader
	// (the Evaluator's cache keying) already serializes behind its own
	// mutex. Mutating a Strategy that other goroutines are reading was
	// never safe; the memo does not change that contract.
	str string
}

// Clone deep-copies the strategy.
func (s *Strategy) Clone() *Strategy {
	c := &Strategy{}
	for _, r := range s.Outbound {
		c.Outbound = append(c.Outbound, r.Clone())
	}
	for _, r := range s.Inbound {
		c.Inbound = append(c.Inbound, r.Clone())
	}
	return c
}

// Size counts action nodes across all rules (GA bloat penalty).
func (s *Strategy) Size() int {
	n := 0
	for _, r := range s.Outbound {
		n += r.Action.Size()
	}
	for _, r := range s.Inbound {
		n += r.Action.Size()
	}
	return n
}

// String renders the strategy in Geneva's canonical syntax
// ("<outbound> \/ <inbound>"). The text is memoized: repeated calls — the
// Evaluator builds a cache key from it for every fitness lookup — return the
// cached string without rebuilding. Any code that mutates a Strategy's rules
// in place must call Invalidate afterwards.
func (s *Strategy) String() string {
	if s.str != "" {
		return s.str
	}
	var b strings.Builder
	for _, r := range s.Outbound {
		r.appendTo(&b)
	}
	b.WriteString(" \\/ ")
	for _, r := range s.Inbound {
		r.appendTo(&b)
	}
	s.str = b.String()
	return s.str
}

// Invalidate clears the memoized canonical text. Every in-place mutation
// path (genetic variation, minimization) calls this; forgetting to would
// leave String() — and anything keyed on it — describing the pre-mutation
// strategy.
func (s *Strategy) Invalidate() { s.str = "" }

// Engine applies a strategy to a host's packet stream. Its Outbound method
// matches tcpstack.Endpoint's Outbound hook signature, so deployment is:
//
//	server.Outbound = core.NewEngine(strategy, rng).Outbound
//
// NewEngine compiles the strategy's triggers once (see Trigger.Compile), so
// the Strategy must not be mutated while the engine is in use. An Engine is
// single-threaded, like the rng it owns.
type Engine struct {
	Strategy *Strategy
	rng      *rand.Rand

	outbound []compiledRule
	inbound  []compiledRule
	pass     [1]*packet.Packet // scratch for the no-match pass-through
	out      []*packet.Packet  // scratch for matched-rule emission
}

// NewEngine builds an engine. The rng drives corrupt-mode tampers.
func NewEngine(s *Strategy, rng *rand.Rand) *Engine {
	return &Engine{
		Strategy: s,
		rng:      rng,
		outbound: compileRules(s.Outbound),
		inbound:  compileRules(s.Inbound),
	}
}

// Outbound transforms one stack-emitted packet into the packets to put on
// the wire. The first matching rule applies; packets matching no rule pass
// through untouched. The returned slice is only valid until the engine's
// next call: the pass-through case reuses a scratch slot.
func (e *Engine) Outbound(pkt *packet.Packet) []*packet.Packet {
	return e.apply(e.outbound, pkt)
}

// Inbound transforms one received packet before the stack sees it. The
// returned slice is only valid until the engine's next call.
func (e *Engine) Inbound(pkt *packet.Packet) []*packet.Packet {
	return e.apply(e.inbound, pkt)
}

func (e *Engine) apply(rules []compiledRule, pkt *packet.Packet) []*packet.Packet {
	for i := range rules {
		if rules[i].match(pkt) {
			e.out = rules[i].action.appendApply(e.out[:0], pkt, e.rng)
			return e.out
		}
	}
	e.pass[0] = pkt
	return e.pass[:1]
}
