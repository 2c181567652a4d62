package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"geneva"
)

func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"geneva/internal/netsim.(*Network).deliver"}, "netsim"},
		// Helpers that name no bucket charge their caller.
		{[]string{"runtime.memmove", "geneva/internal/packet.(*Packet).CopyFrom"}, "packet"},
		{[]string{"runtime.memmove", "sort.Slice", "main.run"}, "other"},
		{[]string{"internal/runtime/maps.(*Map).getWithKeySmall", "geneva/internal/censor/gfw.(*Box).lookup"}, "runtime.maps"},
		{[]string{"math/rand.seedrand", "math/rand.NewSource", "geneva/internal/eval.NewRig"}, "runtime.rand"},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "geneva/internal/tcpstack.NewEndpoint"}, "runtime.malloc"},
		// GC anywhere on the stack wins.
		{[]string{"runtime.memclrNoHeapPointers", "runtime.gcAssistAlloc", "runtime.mallocgc", "geneva/internal/core.NewEngine"}, "runtime.gc"},
		{[]string{"geneva/internal/censor.(*Blocklist).Match", "geneva/internal/censor/tmc.(*TMC).Process"}, "censor.common"},
		{[]string{"sync.(*Pool).Get", "geneva/internal/packet.Get"}, "runtime.sync"},
		{nil, "other"},
	} {
		if got := bucketOf(c.frames); got != c.want {
			t.Errorf("bucketOf(%q) = %q, want %q", c.frames, got, c.want)
		}
	}
}

// TestCPUSharesParsesRealProfile profiles a busy loop with runtime/pprof
// and checks that the reader decodes it: the shares cover every bucket and
// sum to one.
func TestCPUSharesParsesRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	x := 0.0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		x += math.Sqrt(float64(len(buf.Bytes())) + x)
	}
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) == 0 || len(p.strings) == 0 {
		t.Fatalf("decoded %d samples, %d strings", len(p.samples), len(p.strings))
	}
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, b := range cpuBuckets {
		v, ok := shares[b]
		if !ok {
			t.Errorf("bucket %q missing", b)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
}

func TestGateCountsPerturbedResult(t *testing.T) {
	ok := sample{Digest: "ref", Perturbed: "other"}
	if !selfTest(ok, "ref") {
		t.Error("self-test failed on a correct run with a distinct perturbed digest")
	}
	// A gate that could not tell the perturbed result apart must fail the
	// self-test.
	blind := sample{Digest: "ref", Perturbed: "ref"}
	if selfTest(blind, "ref") {
		t.Error("self-test passed although the perturbed digest equals the reference")
	}
	var tl tally
	tl.check(sample{Digest: "ref"}, "ref")
	tl.check(sample{Digest: "x"}, "ref")
	tl.check(sample{Digest: "ref", Err: "boom"}, "ref")
	if tl.attempted != 3 || tl.failed != 2 {
		t.Errorf("tally = %+v, want 3 attempted, 2 failed", tl)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h histogram
	for i := 1; i <= 1000; i++ {
		h.add(time.Duration(i) * time.Microsecond)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 500e3}, {0.99, 990e3}} {
		if got := h.quantile(c.q); math.Abs(got-c.want)/c.want > 0.02 {
			t.Errorf("quantile(%v) = %v ns, want %v ± 2%%", c.q, got, c.want)
		}
	}
}

func TestPerturbChangesDigest(t *testing.T) {
	in, err := buildInputs("fleet-oneshot", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	in.fleet.Connections = 64
	in.fleet.Countries = in.fleet.Countries[:1]
	out, err := runOnce(in)
	if err != nil {
		t.Fatal(err)
	}
	if digestOf(perturb(out.canonical)) == out.digest {
		t.Error("perturbed fleet result has the same digest")
	}
	recs := []evolveRecord{{Protocol: "http", BestFitness: 0.5}}
	if digestOf(perturb(recs)) == digestOf(recs) {
		t.Error("perturbed evolve result has the same digest")
	}
}

// TestTracedTwinMatchesPublicPath runs a small evolution through the
// traced twin and through geneva.EvolveWithStats: the twin is only useful
// while the two agree exactly.
func TestTracedTwinMatchesPublicPath(t *testing.T) {
	in := inputs{evolve: []geneva.EvolveOptions{
		{Country: geneva.China, Protocol: "http", Population: 24, Generations: 2, TrialsPerEval: 2, Seed: 7, Workers: 2},
		{Country: geneva.China, Protocol: "ftp", Population: 24, Generations: 2, TrialsPerEval: 2, Seed: 8, Workers: 2},
	}}
	public, err := runEvolve(in, geneva.EvolveWithStats)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	twin, err := runEvolve(in, tr.evolveWithStats)
	if err != nil {
		t.Fatal(err)
	}
	if twin.digest != public.digest {
		t.Fatalf("traced twin digest %s, public path %s", twin.digest, public.digest)
	}
	for _, k := range []spanKind{kindRigSetup, kindAttempt, kindNetRun, kindNetSelf, kindProcess, kindOutbound, kindAppCallback, kindClientReceive, kindBatch, kindGeneticSelf} {
		if tr.hist[k].n == 0 {
			t.Errorf("no %s spans recorded", kindNames[k])
		}
	}
}
