package apps

import (
	"encoding/binary"
)

// tlsClientRandom is the fixed 32-byte ClientHello random (deterministic
// runs; the censors never look at it).
var tlsClientRandom = func() [32]byte {
	var r [32]byte
	for i := range r {
		r[i] = byte(i*7 + 3)
	}
	return r
}()

// EncodeClientHello builds a TLS 1.2 ClientHello record carrying sni in a
// server_name extension — the exact payload Chinese and Iranian HTTPS DPI
// inspects (§4.2).
func EncodeClientHello(sni string) []byte {
	// Extension: server_name.
	var sniExt []byte
	sniExt = binary.BigEndian.AppendUint16(sniExt, uint16(len(sni)+3)) // server name list length
	sniExt = append(sniExt, 0)                                         // name type: host_name
	sniExt = binary.BigEndian.AppendUint16(sniExt, uint16(len(sni)))
	sniExt = append(sniExt, sni...)

	var exts []byte
	exts = binary.BigEndian.AppendUint16(exts, 0x0000) // extension type: server_name
	exts = binary.BigEndian.AppendUint16(exts, uint16(len(sniExt)))
	exts = append(exts, sniExt...)
	// supported_groups (keeps the hello realistic).
	exts = binary.BigEndian.AppendUint16(exts, 0x000a)
	exts = append(exts, 0x00, 0x04, 0x00, 0x02, 0x00, 0x17)

	var body []byte
	body = binary.BigEndian.AppendUint16(body, 0x0303) // client_version TLS 1.2
	body = append(body, tlsClientRandom[:]...)
	body = append(body, 0) // session_id length
	suites := []uint16{0xc02f, 0xc030, 0xc02b, 0xc02c, 0x009e, 0x009f, 0x002f, 0x0035}
	body = binary.BigEndian.AppendUint16(body, uint16(2*len(suites)))
	for _, s := range suites {
		body = binary.BigEndian.AppendUint16(body, s)
	}
	body = append(body, 1, 0) // compression: null only
	body = binary.BigEndian.AppendUint16(body, uint16(len(exts)))
	body = append(body, exts...)

	// Handshake header: ClientHello(1) + 24-bit length.
	hs := []byte{0x01, byte(len(body) >> 16), byte(len(body) >> 8), byte(len(body))}
	hs = append(hs, body...)

	// Record header: handshake(22), TLS 1.0 on the first flight.
	rec := []byte{0x16, 0x03, 0x01, byte(len(hs) >> 8), byte(len(hs))}
	return append(rec, hs...)
}

// EncodeServerHello builds the canned server first flight the simulated
// HTTPS server returns (a plausible ServerHello record followed by an
// application-data record). The client script expects these exact bytes.
func EncodeServerHello() []byte {
	body := []byte{0x03, 0x03} // server_version
	for i := 0; i < 32; i++ {
		body = append(body, byte(255-i))
	}
	body = append(body, 0)          // session_id length
	body = append(body, 0xc0, 0x2f) // chosen suite
	body = append(body, 0)          // null compression
	hs := []byte{0x02, byte(len(body) >> 16), byte(len(body) >> 8), byte(len(body))}
	hs = append(hs, body...)
	rec := []byte{0x16, 0x03, 0x03, byte(len(hs) >> 8), byte(len(hs))}
	rec = append(rec, hs...)
	appData := []byte("simulated-tls-application-data")
	rec = append(rec, 0x17, 0x03, 0x03, byte(len(appData)>>8), byte(len(appData)))
	return append(rec, appData...)
}
