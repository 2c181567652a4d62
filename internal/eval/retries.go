package eval

import "geneva/internal/core"

// DNSRetryCurve reproduces §4.2's DNS-retry analysis: RFC 7766 clients
// retry queries whose connections close prematurely, and different software
// retries different numbers of times (dig once, Python three times, Chrome
// four). For a strategy with per-try success p, k tries succeed at
// 1-(1-p)^k — the amplification that turns Strategy 1's ~52% per-try rate
// into Table 2's 89% DNS cell. The returned slice maps tries (1-based
// index) to the measured rate.
func DNSRetryCurve(strategyNum, maxTries, trials int) []float64 {
	s, _ := byNumber(strategyNum)
	return dnsRetryCurve(s, maxTries, trials)
}

func dnsRetryCurve(s *core.Strategy, maxTries, trials int) []float64 {
	out := make([]float64, maxTries+1)
	for tries := 1; tries <= maxTries; tries++ {
		cfg := TrialConfig(CountryChina, "dns", s, int64(5000*tries))
		cfg.Tries = tries // the swept retry budget
		out[tries] = Rate(cfg, trials)
	}
	return out
}

// OrderSensitivity reproduces §5.1's packet-order observation for
// Strategy 5: sending the corrupted-ack SYN+ACK first and the
// payload-bearing SYN+ACK second works (97% on FTP), while the reverse
// order is ineffective — the client then completes its handshake from the
// first (valid) SYN+ACK, never emits the induced RST the GFW must
// re-synchronize on, and the box re-acquires from the clean ACK.
func OrderSensitivity(trials int) (normal, reversed float64) {
	s5, _ := byNumber(5)
	// The reverse of Strategy 5: duplicate(payload copy, corrupt-ack copy).
	rev := core.MustParse(`[TCP:flags:SA]-duplicate(tamper{TCP:load:corrupt},tamper{TCP:ack:corrupt})-| \/ `)
	rate := func(st *core.Strategy, seed int64) float64 {
		return Rate(TrialConfig(CountryChina, "ftp", st, seed), trials)
	}
	return rate(s5, 6100), rate(rev, 6200)
}
