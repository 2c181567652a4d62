// Package tcpstack implements the user-space TCP endpoints that play the
// role of the paper's *unmodified clients* and servers.
//
// The server-side strategies in the paper succeed or fail based on specific,
// documented endpoint behaviours, all of which this stack reproduces:
//
//   - TCP simultaneous open (RFC 793 §3.4): a SYN received in SYN-SENT moves
//     the connection to SYN-RECEIVED and elicits a SYN+ACK that reuses the
//     original ISS — the sequence number is not incremented until the final
//     ACK. Strategies 1–3 exploit a GFW bug in resynchronizing on exactly
//     this packet.
//   - A RST without ACK received in SYN-SENT is ignored by every modern OS
//     (despite RFC 793 suggesting otherwise) — the basis of Strategy 1.
//   - A SYN+ACK with an unacceptable acknowledgment number induces the
//     client to send a RST whose sequence number equals the bogus ack value,
//     while the connection remains in SYN-SENT — Strategies 3–7.
//   - A payload on a SYN+ACK is ignored by Linux-family stacks but breaks
//     Windows and macOS stacks (§7) — the Personality type captures this.
//   - The sender honours the peer's advertised window and the absence of a
//     window-scale option, so a tiny SYN+ACK window forces the client to
//     segment its request — Strategy 8 (TCP Window Reduction / brdgrd).
//   - Endpoints validate TCP checksums and silently drop failures, so a
//     checksum-corrupted "insertion packet" is processed by censors (which
//     do not validate) but not by any client — the §7 compatibility fix.
//
// Retransmission is opt-in (Endpoint.Retransmit, a bool). Historically there
// was deliberately no retransmission timer — the virtual network never lost
// packets except by explicit censor action — and that remains the default:
// with retransmission off no timer is ever armed, packet traces are
// byte-identical to older builds, and the experiment harness treats a
// quiescent, unanswered connection as the failure it is (e.g. Iran's
// blackholing). When netsim impairments (loss, duplication, reordering,
// jitter) are active, the harness turns it on: every sequence-consuming
// segment (SYN, SYN+ACK, data, FIN) is tracked in a retransmit queue and
// re-sent on a virtual-clock RTO of 200 ms that doubles on each retry,
// aborting cleanly after six retries without forward progress. Both values
// are constants. Retransmissions
// re-enter the Outbound hook, so a Geneva engine re-processes them exactly
// as NFQueue would on a real server — which makes retransmitted payloads
// versus GFW resynchronization triggers (§5) an observable phenomenon rather
// than a modeling gap.
package tcpstack
