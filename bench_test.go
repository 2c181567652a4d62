// Benchmarks regenerating every table and figure of the paper's evaluation.
//
// Each Table 2 cell is a sub-benchmark whose iterations are independent
// simulated connections; the reported "success_rate" metric is the cell's
// value (compare against the paper's Table 2 — the shape, not the absolute
// timing, is the point). Figures render from live traced connections.
//
//	go test -bench=. -benchmem
package geneva

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"

	"geneva/internal/core"
	"geneva/internal/eval"
	"geneva/internal/packet"
	"geneva/internal/strategies"
)

// benchTrial runs one connection and reports success.
func benchTrial(country, proto string, strategy *core.Strategy, seed int64) bool {
	return eval.Run(eval.Config{
		Country:  country,
		Session:  eval.SessionFor(country, proto, true),
		Strategy: strategy,
		Tries:    eval.TriesFor(proto),
		Seed:     seed,
	}).Success
}

// rateBench turns b.N trials into a success_rate metric.
func rateBench(b *testing.B, country, proto string, strategy *core.Strategy) {
	b.Helper()
	succ := 0
	for i := 0; i < b.N; i++ {
		if benchTrial(country, proto, strategy, int64(i)*977+13) {
			succ++
		}
	}
	b.ReportMetric(float64(succ)/float64(b.N), "success_rate")
}

// BenchmarkTable1 exercises the Table 1 configuration: building each
// country/protocol censorship trigger session.
func BenchmarkTable1(b *testing.B) {
	countries := []string{eval.CountryChina, eval.CountryIndia, eval.CountryIran, eval.CountryKazakhstan}
	for i := 0; i < b.N; i++ {
		for _, c := range countries {
			for _, p := range eval.ChinaProtocols {
				_ = eval.SessionFor(c, p, true)
			}
		}
	}
}

// BenchmarkTable2 regenerates the paper's headline table: one sub-benchmark
// per cell, iterations = trials, metric = success rate.
func BenchmarkTable2(b *testing.B) {
	china := append([]int{0}, []int{1, 2, 3, 4, 5, 6, 7, 8}...)
	for _, num := range china {
		for _, proto := range eval.ChinaProtocols {
			num, proto := num, proto
			b.Run(fmt.Sprintf("china/%s/strategy%d", proto, num), func(b *testing.B) {
				var st *core.Strategy
				if num > 0 {
					s, _ := strategies.ByNumber(num)
					st = s.Parse()
				}
				rateBench(b, eval.CountryChina, proto, st)
			})
		}
	}
	single := []struct {
		country string
		protos  []string
		nums    []int
	}{
		{eval.CountryIndia, []string{"http"}, []int{0, 8}},
		{eval.CountryIran, []string{"http", "https"}, []int{0, 8}},
		{eval.CountryKazakhstan, []string{"http"}, []int{0, 8, 9, 10, 11}},
	}
	for _, blk := range single {
		for _, num := range blk.nums {
			for _, proto := range blk.protos {
				blk, num, proto := blk, num, proto
				b.Run(fmt.Sprintf("%s/%s/strategy%d", blk.country, proto, num), func(b *testing.B) {
					var st *core.Strategy
					if num > 0 {
						s, _ := strategies.ByNumber(num)
						st = s.Parse()
					}
					rateBench(b, blk.country, proto, st)
				})
			}
		}
	}
}

// BenchmarkFigure1 renders China waterfalls (one traced connection per
// strategy per iteration).
func BenchmarkFigure1(b *testing.B) {
	for _, s := range strategies.China() {
		s := s
		b.Run(fmt.Sprintf("strategy%d", s.Number), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = eval.Waterfall(eval.CountryChina, &s, int64(i)+1)
			}
		})
	}
}

// BenchmarkFigure2 renders the Kazakhstan waterfalls.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = eval.Figure2()
	}
}

// BenchmarkFigure3 runs the multi-box evidence: TTL localization plus the
// per-protocol heterogeneity of Strategy 5.
func BenchmarkFigure3(b *testing.B) {
	b.Run("localize-http", func(b *testing.B) {
		hop := 0
		for i := 0; i < b.N; i++ {
			hop = eval.LocalizeCensor("http", int64(i))
		}
		b.ReportMetric(float64(hop), "censor_hop")
	})
	s5, _ := strategies.ByNumber(5)
	for _, proto := range []string{"ftp", "http"} {
		proto := proto
		b.Run("strategy5-"+proto, func(b *testing.B) {
			rateBench(b, eval.CountryChina, proto, s5.Parse())
		})
	}
}

// BenchmarkSection3 evaluates the client-side-analog corpus (§3): the
// metric is the best analog's success rate, which should hover near the
// baseline.
func BenchmarkSection3(b *testing.B) {
	analogs := strategies.ClientSideAnalogs()
	parsed := make([]*core.Strategy, len(analogs))
	for i, s := range analogs {
		parsed[i] = s.Parse()
	}
	succ := 0
	for i := 0; i < b.N; i++ {
		if benchTrial(eval.CountryChina, "http", parsed[i%len(parsed)], int64(i)) {
			succ++
		}
	}
	b.ReportMetric(float64(succ)/float64(b.N), "success_rate")
}

// BenchmarkSection7 runs the full 14x17 client-compatibility matrix per
// iteration.
func BenchmarkSection7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = eval.ClientCompatibility()
	}
}

// BenchmarkEvolve benchmarks the parallel population-evaluation engine on
// small reference training runs: one sub-benchmark per country x protocol
// reporting the fitness cache's hit rate and unique-evaluation count, plus
// a worker-scaling ladder on a fixed reference population (compare
// workers=1 vs workers=8 for the wall-clock speedup; on a multi-core host
// the 8-worker run should be at least 2x faster).
func BenchmarkEvolve(b *testing.B) {
	for _, c := range []struct{ country, proto string }{
		{eval.CountryChina, "http"},
		{eval.CountryChina, "ftp"},
		{eval.CountryKazakhstan, "http"},
		{eval.CountryIndia, "http"},
	} {
		c := c
		b.Run(c.country+"/"+c.proto, func(b *testing.B) {
			var stats eval.EvalStats
			for i := 0; i < b.N; i++ {
				_, stats, _ = eval.EvolveWithStats(eval.EvolveOptions{
					Country:       c.country,
					Protocol:      c.proto,
					Population:    24,
					Generations:   4,
					TrialsPerEval: 2,
					Seed:          17,
				})
			}
			b.ReportMetric(stats.HitRate(), "cache_hit_rate")
			b.ReportMetric(float64(stats.Misses), "unique_evals")
		})
	}
	for _, w := range []int{1, 2, 8} {
		w := w
		b.Run(fmt.Sprintf("china/http/workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _ = eval.Evolve(eval.EvolveOptions{
					Country:       eval.CountryChina,
					Protocol:      "http",
					Population:    48,
					Generations:   3,
					TrialsPerEval: 4,
					Seed:          29,
					Workers:       w,
				})
			}
		})
	}
}

// BenchmarkEvolution runs a small §4.1 training round per iteration.
func BenchmarkEvolution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _ = eval.Evolve(eval.EvolveOptions{
			Country:       eval.CountryKazakhstan,
			Protocol:      "http",
			Population:    30,
			Generations:   5,
			TrialsPerEval: 2,
			Seed:          int64(i),
		})
	}
}

// --- Micro-benchmarks for the substrate ---

// BenchmarkPacketMarshal measures wire serialization of a full packet.
func BenchmarkPacketMarshal(b *testing.B) {
	p := packet.New(
		netip.MustParseAddr("10.1.0.2"), netip.MustParseAddr("198.51.100.9"),
		40000, 80)
	p.TCP.Flags = packet.FlagPSH | packet.FlagACK
	p.TCP.Payload = []byte("GET /?q=ultrasurf HTTP/1.1\r\nHost: example.com\r\n\r\n")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Wire(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPacketParse measures wire parsing.
func BenchmarkPacketParse(b *testing.B) {
	p := packet.New(
		netip.MustParseAddr("10.1.0.2"), netip.MustParseAddr("198.51.100.9"),
		40000, 80)
	p.TCP.Flags = packet.FlagPSH | packet.FlagACK
	p.TCP.Payload = []byte("GET /?q=ultrasurf HTTP/1.1\r\nHost: example.com\r\n\r\n")
	wire, _ := p.Wire()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := packet.Parse(wire); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineApply measures the strategy engine on a SYN+ACK.
func BenchmarkEngineApply(b *testing.B) {
	eng := core.NewEngine(core.MustParse(strategies.Strategy6.DSL), rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := packet.New(
			netip.MustParseAddr("198.51.100.9"), netip.MustParseAddr("10.1.0.2"),
			80, 40000)
		p.TCP.Flags = packet.FlagSYN | packet.FlagACK
		_ = eng.Outbound(p)
	}
}

// BenchmarkStrategyParse measures DSL parsing.
func BenchmarkStrategyParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Parse(strategies.Strategy6.DSL); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullConnection measures one complete simulated evasion attempt
// (handshake + strategy + censor + data) end to end.
func BenchmarkFullConnection(b *testing.B) {
	s1, _ := strategies.ByNumber(1)
	st := s1.Parse()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchTrial(eval.CountryChina, "http", st, int64(i))
	}
}

// BenchmarkTrial is the canonical hot-path benchmark the allocation budget
// tracks (make bench-trial / BENCH_trial.json): one complete China/http
// evasion trial with Strategy 1 — serialize, impair, censor, deliver. The
// trace sub-benchmark runs the identical trial with packet tracing enabled,
// pricing the opt-in capture path against the nop default.
func BenchmarkTrial(b *testing.B) {
	s1, _ := strategies.ByNumber(1)
	st := s1.Parse()
	for _, withTrace := range []bool{false, true} {
		name := "notrace"
		if withTrace {
			name = "trace"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eval.Run(eval.Config{
					Country:   eval.CountryChina,
					Session:   eval.SessionFor(eval.CountryChina, "http", true),
					Strategy:  st,
					Tries:     eval.TriesFor("http"),
					Seed:      int64(i),
					WithTrace: withTrace,
				})
			}
		})
	}
}

// BenchmarkPacketRoundtrip measures the pooled serialize/parse cycle every
// simulated packet pays: Get a packet, fill it, append its wire form into a
// reused buffer, parse it back into a reused packet, and recycle both.
// Steady state this is allocation-free.
func BenchmarkPacketRoundtrip(b *testing.B) {
	src := netip.MustParseAddr("10.1.0.2")
	dst := netip.MustParseAddr("198.51.100.9")
	payload := []byte("GET /?q=ultrasurf HTTP/1.1\r\nHost: example.com\r\n\r\n")
	buf := make([]byte, 0, 128)
	rx := packet.New(dst, src, 80, 40000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := packet.Get(src, dst, 40000, 80)
		p.TCP.Flags = packet.FlagPSH | packet.FlagACK
		p.TCP.Seq = uint32(i)
		p.TCP.Payload = append(p.TCP.Payload[:0], payload...)
		var err error
		buf, err = p.AppendWire(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
		if err := packet.ParseInto(rx, buf); err != nil {
			b.Fatal(err)
		}
		packet.Put(p)
	}
}

// BenchmarkAblations exercises the model-ablation suite (the design-choice
// benchmarks DESIGN.md calls out); the metric is the mean absolute effect
// of removing a mechanism.
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs := eval.Ablations(20)
		effect := 0.0
		for _, r := range rs {
			d := r.WithMechanism - r.WithoutMechanism
			if d < 0 {
				d = -d
			}
			effect += d
		}
		b.ReportMetric(effect/float64(len(rs)), "mean_effect")
	}
}
