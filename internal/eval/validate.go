package eval

import (
	"errors"
	"fmt"
	"strings"
)

// Sentinel errors for input validation, matchable with errors.Is. Every
// validation failure wraps one of these AND keeps the descriptive text
// naming the valid values — callers branch on the sentinel, humans read the
// message. The public facade re-exports them as geneva.ErrUnknownCountry /
// geneva.ErrUnknownProtocol.
var (
	ErrUnknownCountry  = errors.New("unknown country")
	ErrUnknownProtocol = errors.New("unknown protocol")
)

// Countries returns every country the harness can simulate — the censor
// registry's countries plus CountryNone (the public facade validates
// Simulation/Deployment inputs against this list instead of panicking deep
// inside a rig).
func Countries() []string {
	return append(CensoredCountries(), CountryNone)
}

// protocolTable is the one protocol table, in the order every experiment
// enumerates protocols: each modeled application protocol with the seed
// offset the experiments key their cell seeds off and its per-trial attempt
// budget (the paper tests DNS with up to 3 tries, RFC 7766 retry
// behaviour; everything else gets one).
var protocolTable = []struct {
	name  string
	seed  int
	tries int
}{
	{"dns", 1, 3},
	{"ftp", 2, 1},
	{"http", 3, 1},
	{"https", 4, 1},
	{"smtp", 5, 1},
}

// protocolRow returns protocol's index in protocolTable, or -1.
func protocolRow(protocol string) int {
	for i, p := range protocolTable {
		if p.name == protocol {
			return i
		}
	}
	return -1
}

// Protocols returns every application protocol the harness can speak.
func Protocols() []string {
	out := make([]string, len(protocolTable))
	for i, p := range protocolTable {
		out[i] = p.name
	}
	return out
}

// ChinaProtocols are the five protocols the GFW censors (Table 1/2): every
// modeled protocol.
var ChinaProtocols = Protocols()

// ValidProtocol reports whether protocol names a modeled application session.
func ValidProtocol(protocol string) bool { return protocolRow(protocol) >= 0 }

// TriesFor returns the connection attempts per trial of protocol (1 for an
// unknown protocol).
func TriesFor(protocol string) int {
	if i := protocolRow(protocol); i >= 0 {
		return protocolTable[i].tries
	}
	return 1
}

// protoSeed is protocol's seed offset.
func protoSeed(protocol string) int { return protocolTable[protocolRow(protocol)].seed }

// ValidCountry reports whether country names a modeled censor (or
// CountryNone, the uncensored private network).
func ValidCountry(country string) bool {
	if country == CountryNone {
		return true
	}
	_, ok := CensorByCountry(country)
	return ok
}

// CheckCountryProtocol validates a (country, protocol) pair, returning a
// descriptive error naming the valid values. The valid-country list is
// enumerated from the registry, so registering a censor surfaces it here
// with no further wiring. The harness's internal constructors (NewCensor,
// SessionFor) panic on unknown inputs by design — they only ever see
// validated values — so every public entry point calls this first.
func CheckCountryProtocol(country, protocol string) error {
	if !ValidCountry(country) {
		return fmt.Errorf("%w %q (valid: %q for %s, or %q for no censor)",
			ErrUnknownCountry, country, CensoredCountries(), strings.Join(censorDisplays(), ", "), CountryNone)
	}
	if !ValidProtocol(protocol) {
		return fmt.Errorf("%w %q (valid: %s)", ErrUnknownProtocol, protocol, strings.Join(Protocols(), ", "))
	}
	return nil
}

func censorDisplays() []string {
	out := make([]string, len(censorRegistry))
	for i, d := range censorRegistry {
		out[i] = d.Display
	}
	return out
}
