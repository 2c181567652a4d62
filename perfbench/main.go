// Command perfbench is the repository benchmark. It drives the public
// geneva API through three workloads — fleet-oneshot and fleet-sessions
// (geneva.RunDeployment) and evolve (geneva.EvolveWithStats) — and prints
// end-to-end metrics (--trace 0) or per-layer metrics (--trace 1), checking
// every run's result against a reference computed at Workers=1, Shards=1.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload fleet-oneshot --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See perfbench/README.md for the
// workloads, the metrics and the baseline.
//
// The command re-executes itself for every measurement that needs a fresh
// process (set-up time, cold runs, the timed runs), so those processes run
// alone, one after another.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"geneva/internal/eval"
)

const (
	// setupProcs is how many set-up-only processes one run starts; with
	// the cold-run processes and the timed process they give the set-up
	// samples whose median is setup_s.
	setupProcs = 12
	// coldProcs is how many extra fresh processes make one cold run each;
	// the timed process's first run is one more cold sample.
	coldProcs = 4
	// minWarm is the fewest warm runs a timed process makes, however long
	// they take.
	minWarm = 3
	// deadline bounds everything one invocation starts.
	deadline = 170 * time.Second
	// outDir, relative to the checkout root, receives results and spans.
	outDir = ".bench_build/perfbench"
)

// childResult is what a child process prints as its last line.
type childResult struct {
	SetupS    float64            `json:"setup_s"`
	Cold      *sample            `json:"cold,omitempty"`
	Warm      []sample           `json:"warm,omitempty"`
	Traced    []sample           `json:"traced,omitempty"`
	RefDigest string             `json:"ref_digest,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"`
}

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 15, "seconds of warm runs to measure")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	role := flag.String("role", "", "internal: child process role")
	spawnNs := flag.Int64("spawn-ns", 0, "internal: wall-clock ns at which the parent started this process")
	flag.Parse()

	workers := runtime.NumCPU()
	if *role != "" {
		if err := child(*role, *workload, *seed, *seconds, workers, *spawnNs); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := orchestrate(*workload, *seed, *seconds, *trace == 1, workers); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// child runs one measurement role in this (fresh) process.
func child(role, workload string, seed int64, seconds, workers int, spawnNs int64) error {
	in, err := buildInputs(workload, seed, workers)
	if err != nil {
		return err
	}
	res := childResult{SetupS: float64(time.Now().UnixNano()-spawnNs) / 1e9}
	switch role {
	case "setup":
	case "cold", "main", "trace":
		heap := startHeapSampler()
		defer heap.close()
		run := func() (outcome, error) { return runOnce(in) }
		cold, out := measure(heap, run)
		res.Cold = &cold
		if role == "cold" {
			break
		}
		if out.canonical != nil {
			cold.Perturbed = digestOf(perturb(out.canonical))
		}
		budget := time.Duration(seconds) * time.Second
		if role == "main" {
			res.Warm = warmRuns(heap, budget, minWarm, run)
		} else {
			res.Warm, res.Traced, res.Layers, err = tracedRuns(in, heap, budget, workload, seed)
			if err != nil {
				return err
			}
		}
		if res.RefDigest, err = reference(in); err != nil {
			return err
		}
	case "reference":
		if res.RefDigest, err = reference(in); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown role %q", role)
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// warmRuns repeats run until budget has elapsed and at least atLeast runs
// are done.
func warmRuns(heap *heapSampler, budget time.Duration, atLeast int, run func() (outcome, error)) []sample {
	var out []sample
	start := time.Now()
	for len(out) < atLeast || time.Since(start) < budget {
		s, _ := measure(heap, run)
		out = append(out, s)
	}
	return out
}

// reference computes the workload's result at Workers=1, Shards=1 — the
// fully sequential layout every timed run is checked against.
func reference(in inputs) (string, error) {
	eval.SetWorkers(1) // the per-trial pool inside each evolve sample
	defer eval.SetWorkers(0)
	out, err := runOnce(in.withLayout(1, 1))
	if err != nil {
		return "", fmt.Errorf("reference run: %w", err)
	}
	return out.digest, nil
}

// spawn runs this binary in role and decodes its result line.
func spawn(ctx context.Context, role, workload string, seed int64, seconds int) (childResult, error) {
	self, err := os.Executable()
	if err != nil {
		return childResult{}, err
	}
	args := []string{
		"-role", role, "-workload", workload,
		"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds),
	}
	start := time.Now().UnixNano()
	cmd := exec.CommandContext(ctx, self, append(args, "-spawn-ns", strconv.FormatInt(start, 10))...)
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return childResult{}, fmt.Errorf("%s process: %w", role, err)
	}
	var res childResult
	if err := json.Unmarshal(b, &res); err != nil {
		return childResult{}, fmt.Errorf("%s process output: %w", role, err)
	}
	return res, nil
}

// tally is the correctness gate: every run either reproduces the reference
// digest or counts as failed.
type tally struct{ attempted, failed int }

func (t *tally) check(s sample, ref string) {
	t.attempted++
	if s.Err != "" || s.Digest != ref {
		t.failed++
	}
}

func (t tally) failFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// selfTest shows the gate counting a perturbed result as a failure: the
// cold run's own result with one field changed must fail, the unchanged
// one must pass.
func selfTest(cold sample, ref string) bool {
	var t tally
	t.check(cold, ref)
	perturbed := cold
	perturbed.Digest = cold.Perturbed
	t.check(perturbed, ref)
	return cold.Perturbed != "" && t.attempted == 2 && t.failed == 1
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func orchestrate(workload string, seed int64, seconds int, traced bool, workers int) error {
	if _, err := buildInputs(workload, seed, workers); err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	steal0, total0, ticksOK := cpuTicks()

	var colds []sample
	var setupS []float64
	// coldRuns starts n cold processes. Half run before the timed process
	// and half after it, so the cold samples span the invocation instead
	// of one short window.
	coldRuns := func(n int) error {
		for i := 0; i < n; i++ {
			r, err := spawn(ctx, "cold", workload, seed, seconds)
			if err != nil {
				return err
			}
			setupS = append(setupS, r.SetupS)
			colds = append(colds, *r.Cold)
		}
		return nil
	}
	if !traced {
		for i := 0; i < setupProcs; i++ {
			r, err := spawn(ctx, "setup", workload, seed, seconds)
			if err != nil {
				return err
			}
			setupS = append(setupS, r.SetupS)
		}
		if err := coldRuns(coldProcs / 2); err != nil {
			return err
		}
	}
	role := "main"
	if traced {
		role = "trace"
	}
	m, err := spawn(ctx, role, workload, seed, seconds)
	if err != nil {
		return err
	}
	setupS = append(setupS, m.SetupS)
	colds = append(colds, *m.Cold)
	if !traced {
		if err := coldRuns(coldProcs - coldProcs/2); err != nil {
			return err
		}
	}

	// The gate: every run against this seed's sequential reference, and
	// the reference against the stored digest where one exists.
	var t tally
	for _, runs := range [][]sample{colds, m.Warm, m.Traced} {
		for _, s := range runs {
			t.check(s, m.RefDigest)
		}
	}
	stored, haveStored := storedDigest(workload, seed)
	storedOK := !haveStored || stored == m.RefDigest
	if !storedOK {
		t.failed = t.attempted
	}
	selfOK := selfTest(*m.Cold, m.RefDigest)

	var metrics map[string]metric
	if traced {
		metrics = map[string]metric{}
		for name, v := range m.Layers {
			metrics[name] = metric{v, layerUnit(name)}
		}
	} else {
		metrics = endToEnd(setupS, colds, m.Warm)
	}
	// A failed run can leave a metric undefined (no connections to divide
	// by); JSON has no NaN, and the gate has already marked the result
	// incorrect.
	for name, v := range metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			metrics[name] = metric{0, v.Unit}
		}
	}
	h := hostRecord(workers)
	h.StealFrac = stealSince(steal0, total0, ticksOK)
	res := result{
		Correct:   t.failed == 0 && selfOK && storedOK,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   metrics,
	}

	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%v\n", workload, seed, seconds, traced)
	fmt.Printf("host: cpus=%d gomaxprocs=%d workers=%d go=%s kernel=%s cpu=%q steal=%.3f\n",
		h.NumCPU, h.GOMAXPROCS, h.Workers, h.GoVersion, h.Kernel, h.CPUModel, h.StealFrac)
	fmt.Printf("gate: reference=%s stored=%v self-test=%v\n", short(m.RefDigest), storedStatus(haveStored, storedOK), selfOK)
	fmt.Printf("  %-36s %14.6g %s\n", "fail_frac", t.failFrac(), "frac")
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-36s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	if err := writeResults(workload, seed, traced, h, res, setupS, colds, m); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: results file:", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func storedStatus(have, ok bool) string {
	switch {
	case !have:
		return "none-for-seed"
	case ok:
		return "match"
	}
	return "MISMATCH"
}

func short(d string) string {
	if len(d) > 16 {
		return d[:16]
	}
	return d
}

// endToEnd reduces the samples of the runs that returned a result to the
// end-to-end metrics.
func endToEnd(setupS []float64, colds, warm []sample) map[string]metric {
	per := func(f func(s sample) float64) float64 {
		var v []float64
		for _, s := range warm {
			if s.Err == "" {
				v = append(v, f(s))
			}
		}
		return median(v)
	}
	// The live heap is only known at the end of each GC cycle, so one run's
	// peak depends on where its cycles fell. The mean of the three highest
	// per-run peaks is steadier than either one run's peak or the single
	// highest.
	var peaks []float64
	for _, s := range warm {
		if s.Err == "" {
			peaks = append(peaks, float64(s.PeakLiveHeap))
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(peaks)))
	peakHeap := math.NaN()
	if top := peaks[:min(3, len(peaks))]; len(top) > 0 {
		peakHeap = 0
		for _, p := range top {
			peakHeap += p / float64(len(top))
		}
	}
	coldS := make([]float64, len(colds))
	for i, s := range colds {
		coldS[i] = s.RunS
	}
	return map[string]metric{
		"setup_s":              {median(setupS), "s"},
		"cold_run_s":           {median(coldS), "s"},
		"run_s":                {per(func(s sample) float64 { return s.RunS }), "s"},
		"conns_per_s":          {per(func(s sample) float64 { return float64(s.Conns) / s.RunS }), "1/s"},
		"peak_live_heap_mb":    {peakHeap / 1e6, "MB"},
		"allocs_per_conn":      {per(func(s sample) float64 { return float64(s.Allocs) / float64(s.Conns) }), "1/conn"},
		"alloc_bytes_per_conn": {per(func(s sample) float64 { return float64(s.AllocBytes) / float64(s.Conns) }), "B/conn"},
	}
}

// median is the middle value of v (NaN when v is empty).
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return s[len(s)/2]
}

// writeResults keeps the full record of one invocation — host, metrics and
// every sample — beside the build.
func writeResults(workload string, seed int64, traced bool, h host, res result, setupS []float64, colds []sample, m childResult) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	rec := map[string]any{
		"workload": workload, "seed": seed, "trace": traced,
		"host": h, "result": res,
		"setup_s_samples": setupS, "cold": colds, "warm": m.Warm, "traced": m.Traced,
		"ref_digest": m.RefDigest,
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	t := 0
	if traced {
		t = 1
	}
	name := fmt.Sprintf("results-%s-seed%d-trace%d.json", workload, seed, t)
	return os.WriteFile(filepath.Join(outDir, name), append(b, '\n'), 0o644)
}
