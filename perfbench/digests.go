package main

import (
	_ "embed"
	"encoding/json"
	"math"
	"strconv"

	"geneva"
)

// storedDigests holds reference digests per workload and seed, computed
// at Workers=1, Shards=1 (regenerate with -role reference; see README.md).
//
//go:embed digests.json
var storedDigests []byte

func storedDigest(workload string, seed int64) (string, bool) {
	var all map[string]map[string]string
	if err := json.Unmarshal(storedDigests, &all); err != nil {
		return "", false
	}
	d, ok := all[workload][strconv.FormatInt(seed, 10)]
	return d, ok
}

// perturb returns a copy of a canonical result with one field changed,
// the smallest change the correctness gate must still catch.
func perturb(canonical any) any {
	switch c := canonical.(type) {
	case geneva.FleetResult:
		c.Succeeded++
		return c
	case []evolveRecord:
		recs := append([]evolveRecord(nil), c...)
		recs[0].BestFitness = math.Nextafter(recs[0].BestFitness, math.Inf(1))
		return recs
	}
	panic("perturb: unknown canonical result type")
}
