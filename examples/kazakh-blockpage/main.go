// kazakh-blockpage: demonstrate Kazakhstan's in-path HTTP censorship — the
// man-in-the-middle block-page hijack — and the three strategies (plus
// window reduction) that defeat it 100% of the time (§5.3, Figure 2).
//
//	go run ./examples/kazakh-blockpage
package main

import (
	"fmt"

	"geneva"
	"geneva/internal/eval"
	"geneva/internal/strategies"
)

func main() {
	fmt.Println("Client in Kazakhstan requests http://blocked.example/ ...")
	fmt.Println()

	// No evasion: the censor hijacks the flow and serves a block page.
	cfg := eval.TrialConfig(eval.CountryKazakhstan, "http", nil, 1)
	cfg.WithTrace = true
	res := eval.Run(cfg)
	fmt.Print(res.Trace.Waterfall("No evasion: MITM hijack + block page"))
	fmt.Printf("  => success=%v, censor events=%d\n\n", res.Success, res.CensorEvents)

	// Each Kazakhstan strategy, end to end.
	for _, s := range strategies.Kazakhstan() {
		rate, err := geneva.EvasionRate(geneva.Simulation{
			Country:  geneva.Kazakhstan,
			Protocol: "http",
			Strategy: s.DSL,
			Trials:   50,
			Seed:     int64(s.Number),
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("Strategy %2d (%-22s): %3.0f%% success\n", s.Number, s.Name, 100*rate)
	}
	fmt.Println()

	// And the waterfalls for the three Kazakhstan-specific ones.
	fmt.Print(eval.Figure2())
}
