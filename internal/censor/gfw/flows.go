package gfw

import (
	"cmp"
	"slices"

	"geneva/internal/packet"
)

// maxFlows bounds the flows one box tracks. Real censors evict aggressively
// to survive at national scale (§2.1: "maintaining a TCB on a per-flow basis
// is challenging at scale, and thus on-path censors naturally take several
// shortcuts").
const maxFlows = 65536

// maxBoxes is the most boxes one flow table serves: the composite GFW's
// five, one per protocol.
const maxBoxes = 5

// flowRec is one canonical flow's entry in a flowTable: the TCB each box
// keeps for the flow, and which boxes track it right now.
type flowRec struct {
	key  packet.Flow
	seq  uint64 // creation order: eviction drops the oldest records first
	live uint8  // bit i: box i tracks the flow in tcbs[i]
	tcbs []tcb  // one per box
}

// flowTable is the per-flow state of colocated boxes: every box sees every
// packet, so one lookup of the packet's canonical 4-tuple serves them all,
// and each box then processes its own TCB in the record. Box i's TCB is
// independent of the others' — each box creates, tears down and evicts its
// own — and a record leaves the table once no box tracks it. A standalone
// Box keeps a one-slot table of its own.
//
// The first record lives inline: the standard rig is one connection per
// trial, so most trials never allocate per-flow state at all. Further
// concurrent flows spill into a map, and records of flows no box tracks any
// more are recycled, reassembly buffers included.
type flowTable struct {
	width int
	rec0  flowRec
	tcb0  [maxBoxes]tcb // rec0's TCBs
	have0 bool
	spill map[packet.Flow]*flowRec
	free  []*flowRec
	count [maxBoxes]int // flows each box tracks
	seq   uint64
}

// init sizes the table for width boxes. A table must not be copied after
// init: rec0 points into it.
func (tb *flowTable) init(width int) {
	if width < 1 || width > maxBoxes {
		panic("gfw: a flow table serves 1 to 5 boxes")
	}
	tb.width = width
	tb.rec0.tcbs = tb.tcb0[:width]
}

// lookup finds the record for a canonical flow key, or nil.
func (tb *flowTable) lookup(key packet.Flow) *flowRec {
	if tb.have0 && key == tb.rec0.key {
		return &tb.rec0
	}
	return tb.spill[key]
}

// track claims a zeroed TCB for box slot in the flow's record, adding the
// record first when rec is nil: the inline record if it is free, then a
// recycled one, then a fresh allocation into the spill map.
func (tb *flowTable) track(rec *flowRec, key packet.Flow, slot int) (*flowRec, *tcb) {
	if rec == nil {
		switch n := len(tb.free); {
		case !tb.have0:
			tb.have0 = true
			rec = &tb.rec0
		case n > 0:
			rec = tb.free[n-1]
			tb.free[n-1] = nil
			tb.free = tb.free[:n-1]
		default:
			rec = &flowRec{tcbs: make([]tcb, tb.width)}
		}
		if rec != &tb.rec0 {
			if tb.spill == nil {
				tb.spill = make(map[packet.Flow]*flowRec)
			}
			tb.spill[key] = rec
		}
		tb.seq++
		rec.key, rec.seq, rec.live = key, tb.seq, 0
	}
	rec.live |= 1 << slot
	tb.count[slot]++
	t := &rec.tcbs[slot]
	resetTCB(t)
	return rec, t
}

// untrack retires box slot's TCB in rec. The record itself stays until
// settle, so the boxes after slot still see it for the current packet.
func (tb *flowTable) untrack(rec *flowRec, slot int) {
	rec.live &^= 1 << slot
	tb.count[slot]--
}

// settle removes rec from the table if no box tracks it any more.
func (tb *flowTable) settle(rec *flowRec) {
	if rec == nil || rec.live != 0 {
		return
	}
	if rec == &tb.rec0 {
		tb.have0 = false
		return
	}
	delete(tb.spill, rec.key)
	tb.free = append(tb.free, rec)
}

// evict untracks box slot's flows, oldest record first, until the box
// tracks fewer than keep, and returns how many it dropped. The table holds
// only live flows (a box retires a flow the moment it is dealt with), so
// every eviction drops a live one; that is faithful to real on-path
// censors, whose shortcuts under load are one source of the paper's
// baseline miss rates. The order is a function of the packet sequence
// alone, never of map iteration order.
func (tb *flowTable) evict(slot, keep int) int {
	var recs []*flowRec
	if tb.have0 && tb.rec0.live&(1<<slot) != 0 {
		recs = append(recs, &tb.rec0)
	}
	for _, rec := range tb.spill {
		if rec.live&(1<<slot) != 0 {
			recs = append(recs, rec)
		}
	}
	slices.SortFunc(recs, func(a, b *flowRec) int { return cmp.Compare(a.seq, b.seq) })
	n := 0
	for _, rec := range recs {
		if tb.count[slot] < keep {
			break
		}
		tb.untrack(rec, slot)
		tb.settle(rec)
		n++
	}
	return n
}
