// Package profiling wires the diagnostics flags the command-line tools
// share — the standard runtime/pprof collectors and the internal/obs
// counters and run manifest — so a training run or table regeneration can
// be profiled with the stock toolchain:
//
//	evolve -cpuprofile cpu.out -memprofile mem.out ...
//	go tool pprof cpu.out
//
// See EXPERIMENTS.md ("Profiling the trial hot path") for the workflow.
package profiling

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"geneva/internal/obs"
)

// Flags are the -metrics, -manifest, -cpuprofile and -memprofile flags of
// one command. Register them before flag.Parse, call Start right after it,
// and Finish once the run is done.
type Flags struct {
	metrics    *bool
	manifest   *string
	cpuprofile *string
	memprofile *string
	cpu        *os.File // open while the CPU profile runs
}

// Register defines the four flags on the default flag set. manifestUsage is
// the -manifest help text.
func Register(manifestUsage string) *Flags {
	return &Flags{
		cpuprofile: flag.String("cpuprofile", "", "write a CPU profile to this file"),
		memprofile: flag.String("memprofile", "", "write an allocation profile to this file on exit"),
		metrics:    flag.Bool("metrics", false, "enable cross-layer counters and print the nonzero ones after the run"),
		manifest:   flag.String("manifest", "", manifestUsage),
	}
}

// Start begins collection: -metrics or -manifest enables the obs counters
// from zero, and -cpuprofile starts the CPU profile.
func (f *Flags) Start() {
	if *f.metrics || *f.manifest != "" {
		obs.SetEnabled(true)
		obs.Reset()
	}
	if *f.cpuprofile != "" {
		f.cpu = create(*f.cpuprofile)
		check(pprof.StartCPUProfile(f.cpu))
	}
}

// Finish ends the run's diagnostics: with -metrics it hands the counters to
// print, with -manifest it writes m, then it stops the CPU profile and
// writes the -memprofile allocation profile ("allocs", which keeps the
// since-start allocation counts the hot-path work targets, not just live
// heap).
func (f *Flags) Finish(m obs.Manifest, print func(obs.Snapshot)) {
	if *f.metrics {
		print(obs.Take())
	}
	if *f.manifest != "" {
		if err := m.WriteFile(*f.manifest); err != nil {
			fmt.Fprintf(os.Stderr, "writing manifest: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("manifest written to %s\n", *f.manifest)
	}
	if f.cpu != nil {
		pprof.StopCPUProfile()
		f.cpu.Close()
	}
	if *f.memprofile != "" {
		out := create(*f.memprofile)
		defer out.Close()
		runtime.GC() // flush recent frees so the numbers are settled
		check(pprof.Lookup("allocs").WriteTo(out, 0))
	}
}

// PrintMetrics prints every nonzero counter, gauge and histogram under a
// "--- metrics ---" header.
func PrintMetrics(s obs.Snapshot) {
	fmt.Printf("\n--- metrics ---\n%s", s.Format())
}

// check makes profiling errors fatal: these are operator-requested
// diagnostics, and silently producing no profile is worse than exiting.
func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "profiling: %v\n", err)
		os.Exit(1)
	}
}

func create(path string) *os.File {
	f, err := os.Create(path)
	check(err)
	return f
}
