package eval

import (
	"fmt"
	"strings"
	"sync"

	"geneva/internal/apps"
	"geneva/internal/core"
	"geneva/internal/strategies"
)

// sessionCache memoizes the prototypes SessionFor builds: encoding a DNS
// query or TLS ClientHello is pure, so the work is done once per
// (country, protocol, forbidden) and shared across every trial.
var sessionCache struct {
	sync.Mutex
	m map[sessionKey]*apps.Session
}

type sessionKey struct {
	country, protocol string
	forbidden         bool
}

// SessionFor builds the application exchange the paper uses to trigger each
// country's censorship (§4.2). forbidden=false swaps in benign content.
//
// Callers get a shallow copy of the cached prototype: the port-sensitivity
// follow-up retargets Session.Port, and the embedded Scripts are only ever
// Clone()d per connection, never mutated, so sharing them is safe.
func SessionFor(country, protocol string, forbidden bool) *apps.Session {
	k := sessionKey{country, protocol, forbidden}
	sessionCache.Lock()
	proto, ok := sessionCache.m[k]
	if !ok {
		proto = buildSession(country, protocol, forbidden)
		if sessionCache.m == nil {
			sessionCache.m = make(map[sessionKey]*apps.Session)
		}
		sessionCache.m[k] = proto
	}
	sessionCache.Unlock()
	s := *proto
	return &s
}

func buildSession(country, protocol string, forbidden bool) *apps.Session {
	pick := func(bad, good string) string {
		if forbidden {
			return bad
		}
		return good
	}
	switch protocol {
	case "dns":
		return apps.DNSSession(pick("www.wikipedia.org", "www.kernel.org"))
	case "ftp":
		return apps.FTPSession(pick("ultrasurf", "notes.txt"))
	case "http":
		if country == CountryChina || country == CountryNone {
			// China: censored keyword in the URL parameters.
			return apps.HTTPQuerySession(pick("ultrasurf", "kittens"))
		}
		// India/Iran/Kazakhstan: blacklisted website in the Host header.
		return apps.HTTPHostSession(pick("blocked.example", "allowed.example"))
	case "https":
		if country == CountryIran {
			return apps.HTTPSSession(pick("youtube.com", "example.org"))
		}
		return apps.HTTPSSession(pick("www.wikipedia.org", "example.org"))
	case "smtp":
		return apps.SMTPSession(pick("tibetalk@yahoo.com.cn", "friend@example.org"))
	}
	panic("eval: unknown protocol " + protocol)
}

// Table2Row is one row of Table 2: a strategy (or "No evasion") with its
// success rate per protocol. Rates are in [0,1]; -1 marks cells the paper
// leaves blank ("–").
type Table2Row struct {
	Number int
	Name   string
	Rates  map[string]float64
}

// Table2Block is one country's block of Table 2.
type Table2Block struct {
	Country   string
	Protocols []string
	Rows      []Table2Row
}

// Table2 computes the paper's headline table with the given number of
// trials per cell, one block per registered censor: the GFW's full
// strategy sweep for China, and each single-engine censor's Table2
// strategies over its censored protocols. Seeds are fixed (and key off
// strategy numbers and protocols, never off registry position), so two
// runs agree exactly.
func Table2(trials int) []Table2Block {
	var blocks []Table2Block
	for _, d := range Registry() {
		if d.Country == CountryChina {
			blocks = append(blocks, chinaBlock(trials))
			continue
		}
		blocks = append(blocks, singleProtocolBlock(d.Country, trials, d.Table2, d.Protocols))
	}
	return blocks
}

func chinaBlock(trials int) Table2Block {
	b := Table2Block{Country: CountryChina, Protocols: ChinaProtocols}
	rows := []Table2Row{{Number: 0, Name: "No evasion", Rates: map[string]float64{}}}
	for _, s := range strategies.China() {
		rows = append(rows, Table2Row{Number: s.Number, Name: s.Name, Rates: map[string]float64{}})
	}
	for _, proto := range ChinaProtocols {
		for i := range rows {
			s, _ := byNumber(rows[i].Number) // row 0, no evasion: nil
			rows[i].Rates[proto] = Rate(TrialConfig(CountryChina, proto, s, int64(1000*i+protoSeed(proto))), trials)
		}
	}
	b.Rows = rows
	return b
}

func singleProtocolBlock(country string, trials int, strats []strategies.Strategy, protos []string) Table2Block {
	b := Table2Block{Country: country, Protocols: ChinaProtocols}
	censoredHere := func(proto string) bool {
		for _, p := range protos {
			if p == proto {
				return true
			}
		}
		return false
	}
	noEvasion := Table2Row{Number: 0, Name: "No evasion", Rates: map[string]float64{}}
	for _, proto := range ChinaProtocols {
		noEvasion.Rates[proto] = Rate(TrialConfig(country, proto, nil, int64(protoSeed(proto))), trials)
	}
	b.Rows = append(b.Rows, noEvasion)
	for _, s := range strats {
		row := Table2Row{Number: s.Number, Name: s.Name, Rates: map[string]float64{}}
		for _, proto := range ChinaProtocols {
			if !censoredHere(proto) {
				row.Rates[proto] = -1 // the paper's "–"
				continue
			}
			row.Rates[proto] = Rate(TrialConfig(country, proto, s.Parse(), int64(100*s.Number+protoSeed(proto))), trials)
		}
		b.Rows = append(b.Rows, row)
	}
	return b
}

// FormatTable2 renders the blocks in the paper's layout.
func FormatTable2(blocks []Table2Block) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %-38s %6s %6s %6s %6s %6s\n",
		"#", "Description", "DNS", "FTP", "HTTP", "HTTPS", "SMTP")
	for _, blk := range blocks {
		fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 80))
		fmt.Fprintf(&b, "%s\n", strings.ToUpper(blk.Country[:1])+blk.Country[1:])
		for _, row := range blk.Rows {
			num := "–"
			if row.Number > 0 {
				num = fmt.Sprintf("%d", row.Number)
			}
			fmt.Fprintf(&b, "%-4s %-38s", num, row.Name)
			for _, proto := range blk.Protocols {
				r, ok := row.Rates[proto]
				switch {
				case !ok || r < 0:
					fmt.Fprintf(&b, " %6s", "–")
				default:
					fmt.Fprintf(&b, " %5.0f%%", 100*r)
				}
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// byNumber compiles a paper strategy by number (test/benchmark helper).
func byNumber(n int) (*core.Strategy, bool) {
	s, ok := strategies.ByNumber(n)
	if !ok {
		return nil, false
	}
	return s.Parse(), true
}
