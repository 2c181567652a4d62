// Package apps implements minimal wire-correct clients and servers for the
// five application protocols the paper triggers censorship with: DNS-over-TCP
// (RFC 1035/7766), FTP (RFC 959 control channel), HTTP/1.1, HTTPS (a real
// TLS ClientHello with an SNI extension), and SMTP (RFC 5321).
//
// Both ends run the same Script engine: a deterministic transcript of what
// to send and exactly what to expect back. Success is judged the way §4.2
// of the paper does — the connection is not forcibly torn down and the
// client receives the correct, *unaltered* data — so a block page, a
// Windows stack swallowing a SYN+ACK payload into the stream, or a censor
// RST all register as failures without any protocol-specific checks.
//
// The package also exports the FTP and SMTP command parsers the censor
// models use for deep-packet inspection; the DNS, HTTP and TLS field
// parsers live in internal/packet (Parse*), where packet.Packet memoizes
// them.
package apps
