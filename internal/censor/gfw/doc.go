// Package gfw models China's Great Firewall as the paper reverse-engineers
// it: five *independent* censorship boxes — one per application protocol
// (DNS-over-TCP, FTP, HTTP, HTTPS, SMTP) — colocated at the same hop, each
// with its own network stack, TCB management, resynchronization-state
// handling, and bugs (§5.1, §6, Figure 3).
//
// Mechanics implemented per box (§5.1's revised resynchronization model):
//
//  1. A payload on a non-SYN+ACK packet from the server puts the box into a
//     resynchronization state that re-syncs on the next SYN+ACK from the
//     server or the next ACK-flagged packet from the client (all
//     protocols).
//  2. A RST from the server triggers resync on the next packet from the
//     client (all protocols except HTTPS).
//  3. A SYN+ACK with a corrupted acknowledgment number triggers resync on
//     the next packet from the client (FTP only).
//
// Plus the two bugs the strategies exploit:
//
//   - Simultaneous-open off-by-one: when a box re-syncs on a client
//     SYN+ACK, it assumes the sequence number was already incremented (as
//     it would be on a handshake-completing ACK), leaving the box
//     desynchronized by exactly one byte from the real connection.
//   - SYN+ACK payload accounting: a payload riding on a server SYN+ACK is
//     counted into the box's server-sequence expectation even though
//     clients ignore it, which blocks the clean-ACK re-acquisition below
//     (why Strategy 5 beats Strategy 4).
//
// Additional modeled behaviour: the GFW only honours tear-down packets from
// the connection's *client* (the SYN sender; §3); boxes never fail closed
// (§6); the HTTP box applies ~90 s of residual censorship to the server
// IP:port after a censorship event (§4.2); the SMTP box cannot reassemble
// TCP segments and the FTP box frequently cannot (Table 2, row 8); and no
// box validates TCP checksums (§7).
//
// The entry probabilities of the resynchronization state are measured but
// unexplained in the paper (~50% for most triggers); they are stochastic
// parameters here, calibrated per box against Table 2 (see DESIGN.md).
//
// The boxes' TCB tables are independent in behaviour but shared in
// storage: the GFW keeps one flow table whose record per canonical 4-tuple
// holds each box's TCB and a per-box presence bit, so a packet costs one
// flow lookup however many boxes see it. Each box still creates, retires
// and evicts its own TCBs, in box order. A box retires a flow the moment
// it is dealt with, so a box at its flow bound (maxFlows) evicts live
// flows, oldest record first — a fixed order, never map iteration order,
// so a run that overflows the table is as reproducible as any other.
package gfw
