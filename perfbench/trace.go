package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"geneva"
	"geneva/internal/core"
	"geneva/internal/eval"
	"geneva/internal/genetic"
	"geneva/internal/netsim"
	"geneva/internal/obs"
	"geneva/internal/packet"
	"geneva/internal/tcpstack"
)

// spanKind names a timed boundary. The traced evolve run records one span
// per crossing, from wrappers the benchmark installs at public seams.
type spanKind uint8

const (
	kindTrial         spanKind = iota // one fitness trial (eval.Run's shape)
	kindRigSetup                      // eval.NewRig plus re-wiring the traced network
	kindAttempt                       // one connection attempt (eval.Rig.Attempt's shape)
	kindNetRun                        // netsim.Network.Run
	kindProcess                       // the censor's netsim.Middlebox.Process
	kindOutbound                      // the server's Endpoint.Outbound (the core engine)
	kindAppCallback                   // a tcpstack.App callback, client or server
	kindClientReceive                 // the client netsim.Host's Receive (tcpstack)
	kindNetSelf                       // derived: Network.Run minus its direct children
	kindBatch                         // one genetic BatchFitness call (a generation)
	kindGeneticSelf                   // derived: genetic.Evolve minus BatchFitness
	numKinds
)

// spanMetrics maps the reported span metrics to their kinds and units; the
// kinds not listed (trial, netsim.run) appear only in the span file.
var spanMetrics = []struct {
	name  string
	kind  spanKind
	scale float64 // seconds per unit
	unit  string
}{
	{"eval.rig_setup_us", kindRigSetup, 1e-6, "us"},
	{"eval.attempt_us", kindAttempt, 1e-6, "us"},
	{"netsim.self_us", kindNetSelf, 1e-6, "us"},
	{"censor.gfw.process_ns", kindProcess, 1e-9, "ns"},
	{"core.outbound_ns", kindOutbound, 1e-9, "ns"},
	{"apps.callback_ns", kindAppCallback, 1e-9, "ns"},
	{"tcpstack.client_receive_ns", kindClientReceive, 1e-9, "ns"},
	{"eval.batch_s", kindBatch, 1, "s"},
	{"genetic.self_s", kindGeneticSelf, 1, "s"},
}

var kindNames = [numKinds]string{
	"eval.trial", "eval.rig_setup", "eval.attempt", "netsim.run", "censor.process",
	"core.outbound", "apps.callback", "tcpstack.client_receive", "netsim.self",
	"eval.batch", "genetic.self",
}

// histogram is a log-bucketed duration histogram (about 1.6% wide buckets)
// so percentiles need no stored samples.
type histogram struct {
	n       uint64
	buckets [2048]uint64
}

const histPerE = 64 // buckets per factor of e

func (h *histogram) add(d time.Duration) {
	i := 0
	if d > 1 {
		i = int(math.Log(float64(d)) * histPerE)
	}
	h.buckets[min(i, len(h.buckets)-1)]++
	h.n++
}

// quantile returns the q-quantile in nanoseconds (the bucket's midpoint).
func (h *histogram) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	var seen uint64
	for i, c := range h.buckets {
		seen += c
		if seen >= rank {
			return math.Exp((float64(i) + 0.5) / histPerE)
		}
	}
	return math.Exp(float64(len(h.buckets)) / histPerE)
}

// span is one recorded boundary crossing, in nanoseconds since the
// tracer's epoch. Parent indexes the same trial's spans (-1 for a root).
type span struct {
	Kind   spanKind `json:"-"`
	Trial  int64    `json:"trial"`
	Name   string   `json:"name"`
	Start  int64    `json:"start_ns"`
	End    int64    `json:"end_ns"`
	Parent int32    `json:"parent"`
}

// keepSpans bounds how many raw spans one traced run keeps for the span
// file; the histograms see every span.
const keepSpans = 50_000

// tracer collects spans from concurrent trials.
type tracer struct {
	epoch  time.Time
	trials atomic.Int64

	mu   sync.Mutex
	hist [numKinds]histogram
	kept []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (tr *tracer) record(k spanKind, d time.Duration) {
	tr.mu.Lock()
	tr.hist[k].add(d)
	tr.mu.Unlock()
}

// trialTrace records one trial's spans on the goroutine running it.
type trialTrace struct {
	tr    *tracer
	id    int64
	spans []span
	open  []int32
}

func (tt *trialTrace) now() int64 { return int64(time.Since(tt.tr.epoch)) }

func (tt *trialTrace) begin(k spanKind) int32 {
	parent := int32(-1)
	if len(tt.open) > 0 {
		parent = tt.open[len(tt.open)-1]
	}
	i := int32(len(tt.spans))
	tt.spans = append(tt.spans, span{Kind: k, Trial: tt.id, Name: kindNames[k], Start: tt.now(), Parent: parent})
	tt.open = append(tt.open, i)
	return i
}

func (tt *trialTrace) end(i int32) {
	tt.spans[i].End = tt.now()
	tt.open = tt.open[:len(tt.open)-1]
}

// finish folds the trial's spans into the tracer: every span into its
// kind's histogram, plus netsim self time — each Network.Run minus the
// spans directly inside it.
func (tt *trialTrace) finish() {
	children := make(map[int32]int64)
	for _, s := range tt.spans {
		if s.Parent >= 0 && tt.spans[s.Parent].Kind == kindNetRun {
			children[s.Parent] += s.End - s.Start
		}
	}
	tr := tt.tr
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for i, s := range tt.spans {
		d := time.Duration(s.End - s.Start)
		tr.hist[s.Kind].add(d)
		if s.Kind == kindNetRun {
			tr.hist[kindNetSelf].add(d - time.Duration(children[int32(i)]))
		}
	}
	if room := keepSpans - len(tr.kept); room > 0 {
		tr.kept = append(tr.kept, tt.spans[:min(room, len(tt.spans))]...)
	}
}

// tracedHost wraps the client endpoint. Only the client can be wrapped:
// netsim.Send tells directions apart by comparing the sender with the
// server Host it was built with, so the server endpoint stays bare.
type tracedHost struct {
	*tcpstack.Endpoint
	t *trialTrace
}

func (h tracedHost) Receive(n *netsim.Network, p *packet.Packet) {
	i := h.t.begin(kindClientReceive)
	h.Endpoint.Receive(n, p)
	h.t.end(i)
}

type tracedBox struct {
	netsim.Middlebox
	t *trialTrace
}

func (b tracedBox) Process(p *packet.Packet, dir netsim.Direction, now time.Duration) netsim.Verdict {
	i := b.t.begin(kindProcess)
	v := b.Middlebox.Process(p, dir, now)
	b.t.end(i)
	return v
}

type tracedApp struct {
	app tcpstack.App
	t   *trialTrace
}

func (a tracedApp) OnEstablished(c *tcpstack.Conn) {
	i := a.t.begin(kindAppCallback)
	a.app.OnEstablished(c)
	a.t.end(i)
}

func (a tracedApp) OnData(c *tcpstack.Conn, data []byte) {
	i := a.t.begin(kindAppCallback)
	a.app.OnData(c, data)
	a.t.end(i)
}

func (a tracedApp) OnClose(c *tcpstack.Conn, reset bool) {
	i := a.t.begin(kindAppCallback)
	a.app.OnClose(c, reset)
	a.t.end(i)
}

// hookServer is the eval.Config.ServerHook of a traced trial: it wraps
// the server's Outbound (the core engine) and the apps it accepts.
func (t *trialTrace) hookServer(ep *tcpstack.Endpoint) {
	if out := ep.Outbound; out != nil {
		ep.Outbound = func(p *packet.Packet) []*packet.Packet {
			i := t.begin(kindOutbound)
			r := out(p)
			t.end(i)
			return r
		}
	}
	if newApp := ep.NewServerApp; newApp != nil {
		ep.NewServerApp = func(c *tcpstack.Conn) tcpstack.App { return tracedApp{newApp(c), t} }
	}
}

// trial runs one fitness trial the way eval.Run does — a fresh rig, up to
// cfg.Tries attempts, retrying only after a teardown — with every seam
// wrapped, and reports whether it succeeded.
func (tr *tracer) trial(cfg eval.Config) bool {
	t := &trialTrace{tr: tr, id: tr.trials.Add(1)}
	root := t.begin(kindTrial)
	setup := t.begin(kindRigSetup)
	cfg.ServerHook = t.hookServer
	rig := eval.NewRig(cfg)
	// Rebuild the network around wrapped client and censor; the endpoints,
	// engine and censor (and their rng streams) are the rig's own.
	var n *netsim.Network
	if rig.Censor != nil {
		n = netsim.New(tracedHost{rig.Client, t}, rig.Server, tracedBox{rig.Censor, t})
	} else {
		n = netsim.New(tracedHost{rig.Client, t}, rig.Server)
	}
	n.RecyclePackets = true
	rig.Client.Attach(n)
	rig.Server.Attach(n)
	rig.Net = n
	t.end(setup)

	success := false
	for i := 0; i < max(cfg.Tries, 1); i++ {
		a := t.begin(kindAttempt)
		app := rig.Session.NewClient()
		rig.Client.Connect(eval.ServerAddr, rig.Session.Port, tracedApp{app, t})
		r := t.begin(kindNetRun)
		rig.Net.Run(0)
		t.end(r)
		t.end(a)
		if app.Succeeded() {
			success = true
			break
		}
		if !app.Reset() {
			break
		}
	}
	t.end(root)
	t.finish()
	return success
}

// twinEvaluator mirrors eval.Evaluator's BatchFitness — the same cache,
// in-batch dedup and counters — but scores each strategy through traced
// trials. Its results must equal the public path's exactly; the traced
// run's digest check enforces that.
type twinEvaluator struct {
	tr                *tracer
	country, protocol string
	trials, workers   int
	seedBase          int64
	cache             map[string]float64
	stats             geneva.EvalStats
}

func (e *twinEvaluator) batch(batch []*core.Strategy) []float64 {
	keys := make([]string, len(batch))
	resolved := make(map[string]float64, len(batch))
	pending := make(map[string]bool)
	var todo []int
	for i, s := range batch {
		k := s.String()
		keys[i] = k
		if _, ok := resolved[k]; ok {
			e.stats.Hits++
			continue
		}
		if f, ok := e.cache[k]; ok {
			resolved[k] = f
			e.stats.Hits++
			continue
		}
		if pending[k] {
			e.stats.Dedups++
			continue
		}
		pending[k] = true
		todo = append(todo, i)
		e.stats.Misses++
	}
	results := make([]float64, len(todo))
	eval.RunParallel(max(e.workers, 1), len(todo), func(j int) {
		results[j] = e.sample(batch[todo[j]])
	})
	for j, i := range todo {
		resolved[keys[i]] = results[j]
		e.cache[keys[i]] = results[j]
	}
	e.stats.Entries = len(e.cache)
	out := make([]float64, len(batch))
	for i, k := range keys {
		out[i] = resolved[k]
	}
	return out
}

// sample is eval.Rate over traced trials: the same seed schedule, the same
// success fraction.
func (e *twinEvaluator) sample(s *core.Strategy) float64 {
	cfg := eval.Config{
		Country:  e.country,
		Session:  eval.SessionFor(e.country, e.protocol, true),
		Strategy: s,
		Tries:    eval.TriesFor(e.protocol),
		Seed:     e.seedBase,
	}
	succeeded := 0
	for i := 0; i < e.trials; i++ {
		c := cfg
		c.Seed = cfg.Seed + int64(i)*7919
		if e.tr.trial(c) {
			succeeded++
		}
	}
	return float64(succeeded) / float64(e.trials)
}

// evolveWithStats is geneva.EvolveWithStats with a traced evaluator and a
// timed BatchFitness seam.
func (tr *tracer) evolveWithStats(opt geneva.EvolveOptions) (geneva.EvolutionResult, geneva.EvalStats, error) {
	if err := eval.CheckCountryProtocol(opt.Country, opt.Protocol); err != nil {
		return geneva.EvolutionResult{}, geneva.EvalStats{}, err
	}
	trials := opt.TrialsPerEval
	if trials == 0 {
		trials = 10
	}
	ev := &twinEvaluator{
		tr: tr, country: opt.Country, protocol: opt.Protocol,
		trials: trials, workers: opt.Workers, seedBase: opt.Seed,
		cache: map[string]float64{},
	}
	var inBatch time.Duration
	cfg := genetic.Config{
		PopulationSize: opt.Population,
		Generations:    opt.Generations,
		TriggerValue:   "SA",
		EvolveTrigger:  opt.Protocol == "ftp",
		Rng:            rand.New(rand.NewSource(opt.Seed)),
		BatchFitness: func(b []*core.Strategy) []float64 {
			start := time.Now()
			out := ev.batch(b)
			d := time.Since(start)
			inBatch += d
			tr.record(kindBatch, d)
			return out
		},
	}
	start := time.Now()
	res := genetic.Evolve(cfg)
	tr.record(kindGeneticSelf, time.Since(start)-inBatch)
	return res, ev.stats, nil
}

// writeSpans writes the kept raw spans as JSON lines.
func (tr *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.kept {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerUnits lists every per-layer metric with its unit, in report order.
func layerUnits() [][2]string {
	var out [][2]string
	for _, b := range cpuBuckets {
		out = append(out, [2]string{b + ".cpu_share", "frac"})
	}
	out = append(out,
		[2]string{"netsim.delivered_per_conn", "1/conn"},
		[2]string{"netsim.timers_per_conn", "1/conn"},
		[2]string{"netsim.recycled_frac", "frac"},
		[2]string{"tcpstack.segments_per_conn", "1/conn"},
		[2]string{"tcpstack.retransmits_per_conn", "1/conn"},
		[2]string{"fleet.attempts_per_conn", "1/conn"},
		[2]string{"fleet.residual_windows_published", "count"},
		[2]string{"selector.pulls_per_conn", "1/conn"},
		[2]string{"selector.fallbacks", "count"},
		[2]string{"eval.cache_hit_frac", "frac"},
		[2]string{"eval.trials_computed", "count"},
	)
	for _, m := range spanMetrics {
		out = append(out,
			[2]string{m.name + ".p50", m.unit},
			[2]string{m.name + ".p99", m.unit},
			[2]string{m.name + ".n", "count"})
	}
	return append(out,
		[2]string{"runtime.gc_cpu_frac", "frac"},
		[2]string{"runtime.gc_cycles", "count"},
		[2]string{"runtime.cpu_util", "frac"},
		[2]string{"trace.overhead_ratio", "x"},
	)
}

func layerUnit(name string) string {
	for _, u := range layerUnits() {
		if u[0] == name {
			return u[1]
		}
	}
	return ""
}

// tracedRuns is the body of a --trace 1 process. It makes three kinds of
// runs, each for a share of the budget:
//
//   - untraced warm runs: the baseline run_s and the runtime metrics;
//   - profiled runs: obs collection on and a CPU profile around the public
//     call, giving the per-layer CPU shares and the obs counts;
//   - span runs (evolve only): the traced twin of EvolveWithStats.
//
// The profiled and span runs are returned as traced samples, so the gate
// checks that they reproduce the reference exactly.
func tracedRuns(in inputs, heap *heapSampler, budget time.Duration, workload string, seed int64) (warm, traced []sample, layers map[string]float64, err error) {
	phases := time.Duration(2)
	if in.evolve != nil {
		phases = 3
	}
	share := budget / phases
	var last outcome
	run := func() (outcome, error) {
		out, err := runOnce(in)
		last = out
		return out, err
	}
	warm = warmRuns(heap, share, 2, run)

	obs.SetEnabled(true)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		obs.SetEnabled(false)
		return nil, nil, nil, err
	}
	counts := map[string]uint64{}
	var profConns int
	profiled := warmRuns(heap, share, 1, func() (outcome, error) {
		obs.Reset()
		out, err := runOnce(in)
		for k, v := range obs.Take().Counters {
			counts[k] += v
		}
		profConns += out.conns
		return out, err
	})
	pprof.StopCPUProfile()
	obs.SetEnabled(false)
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, nil, nil, err
	}
	traced = profiled

	tr := newTracer()
	if in.evolve != nil {
		spanned := warmRuns(heap, share, 1, func() (outcome, error) {
			return runEvolve(in, tr.evolveWithStats)
		})
		traced = append(traced, spanned...)
		if err := tr.writeSpans(filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: span file:", err)
		}
	}

	layers = map[string]float64{}
	for b, v := range shares {
		layers[b+".cpu_share"] = v
	}
	runs := float64(len(profiled))
	perConn := func(name string) float64 { return float64(counts[name]) / float64(profConns) }
	terminal := counts["netsim.delivered"] + counts["netsim.lost_impairment"] + counts["netsim.expired_ttl"] +
		counts["netsim.no_route"] + counts["netsim.dropped_inpath"]
	layers["netsim.delivered_per_conn"] = perConn("netsim.delivered")
	layers["netsim.timers_per_conn"] = perConn("netsim.timers_fired")
	layers["netsim.recycled_frac"] = 0
	if terminal > 0 {
		layers["netsim.recycled_frac"] = float64(counts["netsim.packets_recycled"]) / float64(terminal)
	}
	layers["tcpstack.segments_per_conn"] = perConn("tcpstack.segments_sent")
	layers["tcpstack.retransmits_per_conn"] = perConn("tcpstack.retransmits")
	layers["fleet.attempts_per_conn"] = perConn("fleet.attempts")
	layers["fleet.residual_windows_published"] = float64(counts["fleet.residual_windows_published"]) / runs
	layers["selector.pulls_per_conn"] = perConn("selector.pulls")
	layers["selector.fallbacks"] = float64(counts["selector.fallbacks"]) / runs
	layers["eval.cache_hit_frac"] = 0
	layers["eval.trials_computed"] = 0
	if in.evolve != nil {
		st := last.stats
		if n := st.Hits + st.Misses + st.Dedups; n > 0 {
			layers["eval.cache_hit_frac"] = float64(st.Hits+st.Dedups) / float64(n)
		}
		layers["eval.trials_computed"] = float64(last.conns)
	}
	for _, m := range spanMetrics {
		h := &tr.hist[m.kind]
		scale := 1e-9 / m.scale // nanoseconds → the metric's unit
		layers[m.name+".p50"] = h.quantile(0.5) * scale
		layers[m.name+".p99"] = h.quantile(0.99) * scale
		layers[m.name+".n"] = float64(h.n)
	}
	pick := func(runs []sample, f func(sample) float64) float64 {
		v := make([]float64, len(runs))
		for i, s := range runs {
			v[i] = f(s)
		}
		return median(v)
	}
	layers["runtime.gc_cpu_frac"] = pick(warm, func(s sample) float64 { return s.GCCPUFrac })
	layers["runtime.gc_cycles"] = pick(warm, func(s sample) float64 { return float64(s.GCCycles) })
	layers["runtime.cpu_util"] = pick(warm, func(s sample) float64 { return s.CPUUtil })
	tracedRunS := pick(profiled, func(s sample) float64 { return s.RunS })
	if len(traced) > len(profiled) {
		tracedRunS = pick(traced[len(profiled):], func(s sample) float64 { return s.RunS })
	}
	layers["trace.overhead_ratio"] = tracedRunS / pick(warm, func(s sample) float64 { return s.RunS })
	return warm, traced, layers, nil
}
