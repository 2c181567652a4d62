package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"geneva/internal/obs"
)

// diagFlags are the -metrics, -manifest, -cpuprofile and -memprofile flags
// the experiment subcommands share: the internal/obs counters and run
// manifest, and the stock runtime/pprof collectors (see EXPERIMENTS.md,
// "Profiling the trial hot path"). Register them before parsing, call start
// right after, and finish once the run is done.
type diagFlags struct {
	metrics                          *bool
	manifest, cpuprofile, memprofile *string
	cpu                              *os.File // open while the CPU profile runs
}

func registerDiag(fs *flag.FlagSet, manifestUsage string) *diagFlags {
	return &diagFlags{
		cpuprofile: fs.String("cpuprofile", "", "write a CPU profile to this file"),
		memprofile: fs.String("memprofile", "", "write an allocation profile to this file on exit"),
		metrics:    fs.Bool("metrics", false, "enable cross-layer counters and print the nonzero ones after the run"),
		manifest:   fs.String("manifest", "", manifestUsage),
	}
}

// start enables the obs counters from zero for -metrics or -manifest, and
// starts the -cpuprofile CPU profile.
func (f *diagFlags) start() error {
	if *f.metrics || *f.manifest != "" {
		obs.SetEnabled(true)
		obs.Reset()
	}
	if *f.cpuprofile == "" {
		return nil
	}
	cpu, err := os.Create(*f.cpuprofile)
	if err == nil {
		err = pprof.StartCPUProfile(cpu)
	}
	if err != nil {
		cpu.Close()
		return err
	}
	f.cpu = cpu
	return nil
}

// finish prints every nonzero counter, gauge and histogram to w for
// -metrics, writes m for -manifest, stops the CPU profile, and writes the
// -memprofile "allocs" profile (since-start allocation counts, which the
// hot-path work targets, not just live heap). The profiles were asked for,
// so failing to write one fails the run.
func (f *diagFlags) finish(w io.Writer, m obs.Manifest) error {
	if *f.metrics {
		fmt.Fprintf(w, "\n--- metrics ---\n%s", obs.Take().Format())
	}
	if *f.manifest != "" {
		if err := m.WriteFile(*f.manifest); err != nil {
			return fmt.Errorf("writing manifest: %w", err)
		}
		fmt.Fprintf(w, "manifest written to %s\n", *f.manifest)
	}
	if f.cpu != nil {
		pprof.StopCPUProfile()
		if err := f.cpu.Close(); err != nil {
			return err
		}
	}
	if *f.memprofile == "" {
		return nil
	}
	out, err := os.Create(*f.memprofile)
	if err != nil {
		return err
	}
	runtime.GC() // flush recent frees so the numbers are settled
	err = pprof.Lookup("allocs").WriteTo(out, 0)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return err
}
