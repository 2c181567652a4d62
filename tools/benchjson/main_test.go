package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestReadBenchRecordsHost(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: geneva
cpu: Intel(R) Xeon(R) CPU @ 2.20GHz
BenchmarkTrial/notrace-2   	    2000	     41000 ns/op	    9000 B/op	      70 allocs/op
BenchmarkFleet/workers=1/shards=1-2   	       1	 900000000 ns/op	    112800 conns/s	 578 B/op	       4 allocs/op
PASS
`
	current, host, err := readBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	want := hostInfo{CPU: "Intel(R) Xeon(R) CPU @ 2.20GHz", NumCPU: runtime.NumCPU(), GOMAXPROCS: 2}
	if host != want {
		t.Errorf("host = %+v, want %+v", host, want)
	}
	if r, ok := current["BenchmarkTrial/notrace"]; !ok || r.AllocsPerOp != 70 {
		t.Errorf("BenchmarkTrial/notrace = %+v, %v", r, ok)
	}
	if r := current["BenchmarkFleet/workers=1/shards=1"]; r.Metrics["conns/s"] != 112800 {
		t.Errorf("fleet rung metrics = %v", r.Metrics)
	}

	// go test drops the name suffix when GOMAXPROCS is 1.
	_, host, _ = readBench(strings.NewReader("BenchmarkX 10 5 ns/op\n"))
	if host.GOMAXPROCS != 1 {
		t.Errorf("unsuffixed GOMAXPROCS = %d, want 1", host.GOMAXPROCS)
	}
}

// TestCompareReadsCommittedFiles: -compare still reads every committed
// BENCH file, whose results predate the host record; each file gated
// against its own numbers passes.
func TestCompareReadsCommittedFiles(t *testing.T) {
	files, _ := filepath.Glob("../../BENCH_*.json")
	if len(files) == 0 {
		t.Fatal("no committed BENCH_*.json files")
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var committed struct {
			Current map[string]Result `json:"current"`
		}
		if err := json.Unmarshal(raw, &committed); err != nil || len(committed.Current) == 0 {
			t.Fatalf("%s: %v", f, err)
		}
		if code := runCompare(f, committed.Current, 0, "ns,allocs"); code != 0 {
			t.Errorf("%s compared against itself: exit %d", f, code)
		}
	}
}
