// evade-http-china: a full end-to-end evasion of the simulated Great
// Firewall, exactly the scenario from the paper's introduction — an
// unmodified client inside China requests a censored keyword over HTTP;
// the server alone evades on its behalf.
//
//	go run ./examples/evade-http-china
package main

import (
	"fmt"

	"geneva"
	"geneva/internal/eval"
	"geneva/internal/strategies"
)

func main() {
	fmt.Println("An unmodified client in China fetches http://server/?q=ultrasurf")
	fmt.Println()

	// Without evasion: the GFW tears the connection down.
	fmt.Print(eval.Waterfall(eval.CountryChina, nil, 1))
	fmt.Println()

	// With Strategy 1 deployed server-side: simultaneous open + injected
	// RST desynchronizes the GFW's HTTP box.
	s1 := strategies.Strategy1
	fmt.Print(eval.Waterfall(eval.CountryChina, &s1, eval.EvadingSeed(eval.CountryChina, "http", s1.Parse())))
	fmt.Println()

	// Success rates over many connections (Table 2's HTTP column).
	for _, s := range []geneva.LibraryStrategy{
		strategies.Strategy1, strategies.Strategy2, strategies.Strategy6, strategies.Strategy7,
	} {
		rate, err := geneva.EvasionRate(geneva.Simulation{
			Country:  geneva.China,
			Protocol: "http",
			Strategy: s.DSL,
			Trials:   200,
			Seed:     int64(s.Number),
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("Strategy %2d (%-32s) HTTP success: %3.0f%%\n", s.Number, s.Name, 100*rate)
	}
	base, _ := geneva.EvasionRate(geneva.Simulation{
		Country: geneva.China, Protocol: "http", Trials: 200, Seed: 99,
	})
	fmt.Printf("No evasion                                       HTTP success: %3.0f%%\n", 100*base)
}
