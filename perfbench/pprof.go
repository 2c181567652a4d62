package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuBuckets are the layers a CPU profile is split into, in report order.
var cpuBuckets = []string{
	"fleet", "selector", "eval", "genetic", "core", "apps", "tcpstack", "netsim", "packet",
	"censor.gfw", "censor.india", "censor.iran", "censor.kazakh", "censor.tmc", "censor.common",
	"runtime.gc", "runtime.malloc", "runtime.maps", "runtime.sync", "runtime.rand", "other",
}

// cpuShares splits a gzipped pprof CPU profile into cpuBuckets by CPU time.
// Each sample goes to one bucket, found by walking its stack from the leaf:
// GC work anywhere on the stack makes it runtime.gc; otherwise the first
// frame that names a bucket wins. Standard-library and runtime helpers that
// name no bucket (memmove, sort, netip) are skipped, so their time lands on
// the repository package that called them.
func cpuShares(profile []byte) (map[string]float64, error) {
	p, err := parseProfile(profile)
	if err != nil {
		return nil, err
	}
	byBucket := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		var frames []string
		for _, id := range s.locs {
			for _, fn := range p.locLines[id] {
				frames = append(frames, p.str(p.funcName[fn]))
			}
		}
		byBucket[bucketOf(frames)] += s.value
		total += s.value
	}
	out := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		share := 0.0
		if total > 0 {
			share = float64(byBucket[b]) / float64(total)
		}
		out[b] = share
	}
	return out, nil
}

var gcFrames = []string{
	"runtime.gc", "runtime.markroot", "runtime.scanobject", "runtime.scanblock", "runtime.greyobject",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.deductSweepCredit",
	"runtime.wbBuf", "runtime.bulkBarrier", "runtime.(*gcWork)", "runtime.(*gcControllerState)",
	"runtime.poolCleanup",
}

var prefixBuckets = []struct{ prefix, bucket string }{
	{"geneva/internal/censor/gfw.", "censor.gfw"},
	{"geneva/internal/censor/india.", "censor.india"},
	{"geneva/internal/censor/iran.", "censor.iran"},
	{"geneva/internal/censor/kazakh.", "censor.kazakh"},
	{"geneva/internal/censor/tmc.", "censor.tmc"},
	{"geneva/internal/censor.", "censor.common"},
	{"geneva/internal/fleet.", "fleet"},
	{"geneva/internal/selector.", "selector"},
	{"geneva/internal/eval.", "eval"},
	{"geneva/internal/genetic.", "genetic"},
	{"geneva/internal/core.", "core"},
	{"geneva/internal/apps.", "apps"},
	{"geneva/internal/tcpstack.", "tcpstack"},
	{"geneva/internal/netsim.", "netsim"},
	{"geneva/internal/packet.", "packet"},
	{"geneva/", "other"},
	{"geneva.", "other"},
	{"main.", "other"},
	{"math/rand", "runtime.rand"},
	{"internal/runtime/maps.", "runtime.maps"},
	{"runtime.map", "runtime.maps"},
	{"runtime.memhash", "runtime.maps"},
	{"runtime.aeshash", "runtime.maps"},
	{"runtime.strhash", "runtime.maps"},
	{"runtime.interhash", "runtime.maps"},
	{"runtime.nilinterhash", "runtime.maps"},
	{"runtime.typehash", "runtime.maps"},
	{"sync.", "runtime.sync"},
	{"sync/atomic.", "runtime.sync"},
	{"internal/sync.", "runtime.sync"},
	{"internal/runtime/atomic.", "runtime.sync"},
	{"runtime.lock", "runtime.sync"},
	{"runtime.unlock", "runtime.sync"},
	{"runtime.sema", "runtime.sync"},
	{"runtime.futex", "runtime.sync"},
	{"runtime.procyield", "runtime.sync"},
	{"runtime.mallocgc", "runtime.malloc"},
	{"runtime.newobject", "runtime.malloc"},
	{"runtime.newarray", "runtime.malloc"},
	{"runtime.makeslice", "runtime.malloc"},
	{"runtime.growslice", "runtime.malloc"},
	{"runtime.makemap", "runtime.malloc"},
	{"runtime.rawstring", "runtime.malloc"},
	{"runtime.rawbyteslice", "runtime.malloc"},
}

// bucketOf assigns one leaf-first stack to a bucket.
func bucketOf(frames []string) string {
	for _, f := range frames {
		for _, g := range gcFrames {
			if strings.HasPrefix(f, g) {
				return "runtime.gc"
			}
		}
	}
	for _, f := range frames {
		for _, pb := range prefixBuckets {
			if strings.HasPrefix(f, pb.prefix) {
				return pb.bucket
			}
		}
	}
	return "other"
}

// profile is the part of a pprof profile.proto the bucketing needs.
type profile struct {
	strings  []string
	funcName map[uint64]int64    // function id → name string index
	locLines map[uint64][]uint64 // location id → function ids, innermost first
	samples  []profSample
}

type profSample struct {
	locs  []uint64 // leaf first
	value int64    // the last sample value: CPU nanoseconds
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// parseProfile decodes a gzipped profile.proto with a minimal protobuf
// reader (field numbers from github.com/google/pprof/proto/profile.proto).
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{funcName: map[uint64]int64{}, locLines: map[uint64][]uint64{}}
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s profSample
			var values []int64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locs, wire, v, b)
				case 2:
					var u []uint64
					if err := appendVarints(&u, wire, v, b); err != nil {
						return err
					}
					for _, x := range u {
						values = append(values, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.value = values[len(values)-1]
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locLines[id] = fns
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num int, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcName[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	return p, err
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField calls fn for every field of a protobuf message: v carries
// varint and fixed-width values, b the bytes of length-delimited ones.
func eachField(msg []byte, fn func(num int, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unknown wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends one repeated-varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
