package eval

import (
	"net/netip"
	"sync"

	"geneva/internal/core"
	"geneva/internal/lazyrand"
	"geneva/internal/selector"
)

// RouterPrefixes stands in for the paper's §8 country-level IP geolocation:
// the server decides which strategy to run from nothing but the client's
// address in the SYN. The map is built from the censor registry, so every
// registered censor has a routable client population.
var RouterPrefixes = func() map[string]netip.Prefix {
	m := make(map[string]netip.Prefix, len(censorRegistry))
	for _, d := range censorRegistry {
		m[d.Country] = d.RouterPrefix
	}
	return m
}()

// routerClientAddr returns a client address inside a country's prefix.
func routerClientAddr(country string) netip.Addr {
	p := RouterPrefixes[country]
	a := p.Addr().As4()
	a[3] = 2
	return netip.AddrFrom4(a)
}

// deployRoute is one row of the §8 deployment table: a country prefix, the
// strategy the paper would pick for it as a one-arm portfolio, and the
// rng-seed offset (the strategy's paper number) that pins the route's
// random stream to the strategy rather than to installation order.
type deployRoute struct {
	country   string
	prefix    netip.Prefix
	portfolio selector.Portfolio
	offset    int64
}

var (
	deployOnce   sync.Once
	deployRoutes []deployRoute
)

// deployTable parses and compiles the deployment strategies exactly once,
// in a fixed order. The *core.Strategy values are shared read-only by every
// router and engine built from the table (engines compile their own rule
// copies); building the portfolio memoizes String(), so the sharing is
// race-free.
func deployTable() []deployRoute {
	deployOnce.Do(func() {
		for _, d := range censorRegistry {
			deployRoutes = append(deployRoutes, deployRoute{
				country:   d.Country,
				prefix:    d.RouterPrefix,
				portfolio: selector.FromStrategies([]*core.Strategy{d.Deploy.Parse()}),
				offset:    int64(d.Deploy.Number),
			})
		}
	})
	return deployRoutes
}

// DeployPortfolio returns the strategy the §8 deployment serves a country,
// as a one-arm portfolio, with the rng-seed offset of its engine (the
// strategy's paper number). ok is false for a country the deployment does
// not route (CountryNone).
func DeployPortfolio(country string) (p selector.Portfolio, offset int64, ok bool) {
	for _, dr := range deployTable() {
		if dr.country == country {
			return dr.portfolio, dr.offset, true
		}
	}
	return selector.Portfolio{}, 0, false
}

// NewDeploymentRouter builds the §8 deployment: one router serving clients
// everywhere, with the per-country strategy the paper would pick (Strategy
// 1 for China HTTP, Strategy 8 for India and Iran, Strategy 11 for
// Kazakhstan). Each route's engine rng is seeded seed + strategy number, so
// the streams are a function of the strategy, never of table order.
func NewDeploymentRouter(seed int64) *core.Router {
	r := core.NewRouter(nil)
	for _, dr := range deployTable() {
		r.Route(dr.prefix, dr.portfolio.Strategy(0), lazyrand.New(seed+dr.offset))
	}
	return r
}

// RouterDeployment runs the §8 scenario: the SAME router serves clients in
// every registered country (plus an uncensored client outside every
// prefix), and each gets the right strategy purely from its address. Each
// country is probed on its sweep protocol (HTTP where censored, otherwise
// the censor's first censored protocol — Jio, for instance, only censors
// HTTPS). It returns country -> success rate.
func RouterDeployment(trials int) map[string]float64 {
	out := make(map[string]float64)
	for _, country := range Countries() {
		cfg := TrialConfig(country, SweepProtocol(country), nil, 4200)
		if country != CountryNone {
			cfg.ClientAddress = routerClientAddr(country)
		} // CountryNone keeps the default (unrouted) address
		out[country] = rateStats(cfg, trials, 31, func(r *Rig, seed int64) {
			r.Server.Outbound = NewDeploymentRouter(seed).Outbound
		}).Rate()
	}
	return out
}
