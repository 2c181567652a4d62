// Package netsim provides the deterministic virtual network the experiments
// run on: a client host and a server host joined by a path of hops, with
// middleboxes (the censors) attached part-way along the path.
//
// It stands in for the paper's real vantage points. The properties the
// strategies depend on are preserved:
//
//   - FIFO delivery per direction by default (the paper's footnote 1 relies
//     on this); an optional seedable impairment layer (SetImpairments) adds
//     loss, duplication, reordering, and latency jitter, alike in both
//     directions, for robustness experiments — the zero-value Profile keeps
//     the network perfectly lossless and byte-identical to the historical
//     behaviour;
//   - per-hop TTL decrement, so TTL-limited probes can locate a censor
//     (§6) and TTL-limited insertion packets behave correctly;
//   - on-path boxes see copies and can inject packets to either end, while
//     in-path boxes can additionally drop or hijack traffic (§2.1);
//   - a virtual clock, so residual censorship (~90 s) and blackholing
//     (60 s) can be exercised without real waiting; hosts can schedule
//     callbacks on it (After), which is what drives the tcpstack
//     retransmission timers under impairment.
//
// Everything is single-goroutine and seedable, so trials are reproducible.
package netsim
