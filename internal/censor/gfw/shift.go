package gfw

import (
	"fmt"
	"strings"
	"time"
)

// ShiftParams implements censor.ParamShifter: it re-tunes the boxes'
// calibrated probabilities in place, mid-run. Keys name Params fields in
// lower snake case — "pmiss", "prst", "pload", "pcorrupt_ack", "pload_sa",
// "pno_reassembly", "preacquire", "residual_s" (seconds) — either bare
// (applied to every box) or protocol-scoped ("http.prst", applied to that
// box only). An unknown name, a scope with no box, a probability outside
// [0,1] or a negative residual_s is an error, and then nothing changes.
// Applying the shift touches no randomness and no flow state: only the
// constants future packets are judged against.
func (g *GFW) ShiftParams(params map[string]float64) error {
	next := make([]Params, len(g.Boxes))
	for i, b := range g.Boxes {
		next[i] = b.P
	}
	for key, v := range params {
		proto, name, scoped := strings.Cut(key, ".")
		if !scoped {
			proto, name = "", key
		}
		if proto != "" && g.Box(proto) == nil {
			return fmt.Errorf("gfw: shift %q: no %q box", key, proto)
		}
		for i := range next {
			if proto != "" && next[i].Protocol != proto {
				continue
			}
			if err := next[i].shift(name, v); err != nil {
				return fmt.Errorf("gfw: shift %q: %w", key, err)
			}
		}
	}
	for i, b := range g.Boxes {
		b.P = next[i]
	}
	return nil
}

// probabilities maps each probability ShiftParams re-tunes to its field.
var probabilities = map[string]func(p *Params) *float64{
	"pmiss":          func(p *Params) *float64 { return &p.PMiss },
	"prst":           func(p *Params) *float64 { return &p.PRst },
	"pload":          func(p *Params) *float64 { return &p.PLoad },
	"pcorrupt_ack":   func(p *Params) *float64 { return &p.PCorruptAck },
	"pload_sa":       func(p *Params) *float64 { return &p.PLoadSA },
	"pno_reassembly": func(p *Params) *float64 { return &p.PNoReassembly },
	"preacquire":     func(p *Params) *float64 { return &p.PReacquire },
}

// shift sets the parameter ShiftParams calls name to v.
func (p *Params) shift(name string, v float64) error {
	field, prob := probabilities[name]
	switch {
	case name == "residual_s" && v >= 0:
		p.Residual = time.Duration(v * float64(time.Second))
	case name == "residual_s":
		return fmt.Errorf("%v is negative", v)
	case !prob:
		return fmt.Errorf("unknown parameter %q", name)
	case !(v >= 0 && v <= 1):
		return fmt.Errorf("%v is not a probability in [0,1]", v)
	default:
		*field(p) = v
	}
	return nil
}
