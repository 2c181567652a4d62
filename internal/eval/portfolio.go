package eval

import (
	"math/rand"
	"sync"

	"geneva/internal/core"
	"geneva/internal/lazyrand"
	"geneva/internal/packet"
	"geneva/internal/selector"
)

// DefaultPortfolio returns the distinct §8 deployment strategies in
// registry order — Strategy 1 (China), Strategy 8 (India/Iran/
// Turkmenistan), Strategy 11 (Kazakhstan) with today's registry. It is the
// portfolio a Selection-enabled run falls back to when none is given: the
// strategies the paper would actually deploy, now raced against each other
// per country instead of pinned to one.
func DefaultPortfolio() selector.Portfolio {
	var strats []*core.Strategy
	seen := map[string]bool{}
	for _, dr := range deployTable() {
		s := dr.portfolio.Name(0)
		if seen[s] {
			continue
		}
		seen[s] = true
		strats = append(strats, dr.portfolio.Strategy(0))
	}
	return selector.FromStrategies(strats)
}

// PortfolioLease is a pooled set of per-arm engines for one portfolio (see
// AcquirePortfolioEngines). Outbound[a] is the outbound hook of the engine
// running the portfolio's arm a, built once with the lease so handing it to
// a connection (tcpstack.Conn.SetOutbound) allocates nothing.
type PortfolioLease struct {
	Outbound []func(*packet.Packet) []*packet.Packet
	rngs     []*rand.Rand
	pool     *sync.Pool // the pool of this lease's portfolio
}

// portfolioPools pools engine sets per portfolio identity (hash). Engine
// construction compiles every rule; at fleet scale each cell would
// otherwise pay that for every arm. Keyed pooling keeps reuse correct when
// different portfolios run in one process (tests, sequential workloads).
var portfolioPools sync.Map // hash -> *sync.Pool

// AcquirePortfolioEngines leases one engine per portfolio arm, rng-seeded
// at seed + arm: seed is the stream of arm 0, and the caller owns the seed
// schedule around it. A pooled lease only reseeds its engines' generators
// (engines keep no other per-run state), so it is indistinguishable from
// newly built engines. Hand it back with ReleasePortfolioEngines.
func AcquirePortfolioEngines(p selector.Portfolio, seed int64) *PortfolioLease {
	poolAny, ok := portfolioPools.Load(p.Hash())
	if !ok {
		poolAny, _ = portfolioPools.LoadOrStore(p.Hash(), &sync.Pool{})
	}
	pool := poolAny.(*sync.Pool)
	if v := pool.Get(); v != nil {
		l := v.(*PortfolioLease)
		for a := range l.rngs {
			l.rngs[a].Seed(seed + int64(a))
		}
		return l
	}
	l := &PortfolioLease{
		Outbound: make([]func(*packet.Packet) []*packet.Packet, p.Len()),
		rngs:     make([]*rand.Rand, p.Len()),
		pool:     pool,
	}
	for a := 0; a < p.Len(); a++ {
		l.rngs[a] = lazyrand.Get(seed + int64(a))
		l.Outbound[a] = core.NewEngine(p.Strategy(a), l.rngs[a]).Outbound
	}
	return l
}

// ReleasePortfolioEngines returns a lease to its portfolio's pool. The
// caller must not use the engines afterwards.
func ReleasePortfolioEngines(l *PortfolioLease) {
	if l == nil {
		return
	}
	l.pool.Put(l)
}
