package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sample is one timed run's measurements.
type sample struct {
	RunS         float64 `json:"run_s"`
	Conns        int     `json:"conns"`
	Allocs       uint64  `json:"allocs"`
	AllocBytes   uint64  `json:"alloc_bytes"`
	PeakLiveHeap uint64  `json:"peak_live_heap_bytes"`
	GCCycles     uint64  `json:"gc_cycles"`
	GCCPUFrac    float64 `json:"gc_cpu_frac"`
	CPUUtil      float64 `json:"cpu_util"`
	Digest       string  `json:"digest"`
	Err          string  `json:"err,omitempty"`
	// Perturbed is the digest of this run's result after a deliberate
	// one-field change; the self-test feeds it through the correctness gate.
	Perturbed string `json:"perturbed,omitempty"`
}

// heapSampler polls /gc/heap/live:bytes on its own goroutine and keeps the
// maximum seen since the last reset.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

const heapSampleEvery = 2 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak.Load() {
				h.peak.Store(v)
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// take returns the peak since the last take and starts a new window.
func (h *heapSampler) take() uint64 { return h.peak.Swap(0) }

// close stops the sampler and waits for its goroutine to exit.
func (h *heapSampler) close() {
	close(h.stop)
	h.wg.Wait()
}

// runtimeCounters is a snapshot of the process counters a run is measured
// against.
type runtimeCounters struct {
	mallocs, totalAlloc uint64
	gcCycles            uint64
	gcCPU, totalCPU     float64
	procCPU             time.Duration
}

var runtimeMetricNames = []metrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readCounters() runtimeCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := append([]metrics.Sample(nil), runtimeMetricNames...)
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return runtimeCounters{
		mallocs:    ms.Mallocs,
		totalAlloc: ms.TotalAlloc,
		gcCycles:   s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
		procCPU:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
}

// measure times one call of run and fills a sample from the runtime deltas
// around it.
func measure(heap *heapSampler, run func() (outcome, error)) (sample, outcome) {
	before := readCounters()
	heap.take()
	start := time.Now()
	out, err := run()
	elapsed := time.Since(start)
	peak := heap.take()
	after := readCounters()
	s := sample{
		RunS:         elapsed.Seconds(),
		Conns:        out.conns,
		Allocs:       after.mallocs - before.mallocs,
		AllocBytes:   after.totalAlloc - before.totalAlloc,
		PeakLiveHeap: peak,
		GCCycles:     after.gcCycles - before.gcCycles,
		CPUUtil:      (after.procCPU - before.procCPU).Seconds() / (elapsed.Seconds() * float64(runtime.GOMAXPROCS(0))),
		Digest:       out.digest,
	}
	if d := after.totalCPU - before.totalCPU; d > 0 {
		s.GCCPUFrac = (after.gcCPU - before.gcCPU) / d
	}
	if err != nil {
		s.Err = err.Error()
	}
	return s, out
}

// host is the machine record every results file carries.
type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Workers    int    `json:"workers"`
	// StealFrac is the share of the machine's CPU time the hypervisor
	// took away while the invocation ran (-1 where /proc/stat has no
	// steal column). Timings from a run with heavy steal are slow for
	// reasons outside the program.
	StealFrac float64 `json:"steal_frac"`
}

func hostRecord(workers int) host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Kernel:     kernelRelease(),
		Workers:    workers,
	}
}

// cpuTicks returns the machine's steal and total CPU ticks from /proc/stat.
func cpuTicks() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	// user nice system idle iowait irq softirq steal; the guest columns
	// after steal are already counted in user and nice.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// stealSince is the steal share of all CPU ticks since an earlier
// cpuTicks reading, or -1 when it cannot be read.
func stealSince(steal0, total0 uint64, ok0 bool) float64 {
	steal, total, ok := cpuTicks()
	if !ok || !ok0 || total <= total0 {
		return -1
	}
	return float64(steal-steal0) / float64(total-total0)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var b strings.Builder
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b.WriteByte(byte(c))
	}
	return b.String()
}
