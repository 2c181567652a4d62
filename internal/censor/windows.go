package censor

import "time"

// Windows is a table of expiring windows keyed by K — the one
// implementation of the censors' cross-packet timers: the residual
// censorship of a server ip:port (the GFW's and the TMC's, §4.2) and the
// blackholing of an offending client flow (Iran's and Jio's, §5.2).
//
// An entry holds the last instant its window covers: a window is live while
// now <= expiry. A residual window includes its expiry; a blackhole, which
// ends at start+duration, is opened with expiry start+duration-1ns.
//
// Opening a window first sweeps every entry already expired, so the table
// never outgrows the windows opened within one window length, however many
// keys a long run touches. The sweep removes only entries any later lookup
// would treat as expired, so it never changes a verdict. The zero value is
// an empty table; its map is allocated on the first open or seed.
type Windows[K comparable] struct {
	expiry map[K]time.Duration
}

// Live reports whether k's window covers now, deleting the entry once it
// has expired.
func (w *Windows[K]) Live(k K, now time.Duration) bool {
	exp, ok := w.expiry[k]
	if !ok {
		return false
	}
	if now <= exp {
		return true
	}
	delete(w.expiry, k)
	return false
}

// Open sweeps the entries expired at now, then sets k's window to expire
// at exp, replacing any window k already has — a shorter exp shortens it.
// It returns the number of entries swept.
func (w *Windows[K]) Open(k K, now, exp time.Duration) (swept int) {
	swept = w.sweep(now)
	w.expiry[k] = exp
	return swept
}

// Extend is Open with a max-merge: k's window only ever grows.
func (w *Windows[K]) Extend(k K, now, exp time.Duration) {
	w.sweep(now)
	w.Seed(k, exp)
}

// Seed installs a window for k expiring at exp unless k already has a
// longer one (max-merge), so seeding the same set of windows in any order
// yields the same table. Seeding never sweeps.
func (w *Windows[K]) Seed(k K, exp time.Duration) {
	if cur, ok := w.expiry[k]; ok && cur >= exp {
		return
	}
	if w.expiry == nil {
		w.expiry = make(map[K]time.Duration)
	}
	w.expiry[k] = exp
}

// Export calls emit with every window live at now and the time it has
// remaining. Expired entries are skipped, not deleted. The order is map
// order; callers needing determinism must fold with an order-independent
// merge.
func (w *Windows[K]) Export(now time.Duration, emit func(k K, remaining time.Duration)) {
	for k, exp := range w.expiry {
		if now <= exp {
			emit(k, exp-now)
		}
	}
}

// Len is the number of entries held, live or not yet swept.
func (w *Windows[K]) Len() int { return len(w.expiry) }

// sweep deletes the entries expired at now and returns how many it
// deleted, allocating the map if the table is still empty.
func (w *Windows[K]) sweep(now time.Duration) (swept int) {
	if w.expiry == nil {
		w.expiry = make(map[K]time.Duration)
	}
	for k, exp := range w.expiry {
		if now > exp {
			delete(w.expiry, k)
			swept++
		}
	}
	return swept
}
