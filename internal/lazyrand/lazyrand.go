// Package lazyrand builds every random-number generator the simulator
// uses. Its source draws exactly the stream rand.NewSource(seed) draws, for
// every seed and every *rand.Rand method, but seeding it costs nothing.
//
// math/rand's Seed runs 1,841 serial steps of x ← 48271·x mod (2³¹−1) to
// fill a 607-word table, and a trial reads a few dozen of those words.
// Step k's output is seed·48271^k mod (2³¹−1), and word i is built from
// steps 21+3i, 22+3i and 23+3i, so with the powers tabulated once at init
// any word can be built alone from three multiplies. The additive
// lagged-Fibonacci draw reads two words per call (feed and tap), so Seed
// here only reduces the seed and each word is built the first time a draw
// reads it. After lazyDraws draws every word has been read once and draws
// take math/rand's plain path.
//
// Get and Put recycle generators through one pool; a reseeded generator
// is indistinguishable from a new one, so pooling never changes a stream.
//
// The draw, the seed reduction and rngCooked follow the Go distribution's
// src/math/rand/rng.go, under the BSD licence in this directory's LICENSE
// file.
package lazyrand

import (
	"math/rand"
	"sync"
)

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1

	// modulus is the prime 2³¹−1 of math/rand's seeding recurrence.
	modulus = 1<<31 - 1
	// lazyDraws is how many draws read every word once: feed walks words
	// lazyDraws-1 … 0, and tap walks rngLen-1 … lazyDraws before it reaches
	// words feed has already built.
	lazyDraws = rngLen - rngTap
)

// powers[i] holds 48271^k mod 2³¹−1 for the seeding steps k = 21+3i,
// 22+3i and 23+3i that math/rand's Seed spends on word i.
var powers = func() (p [rngLen][3]uint64) {
	x := uint64(1)
	for k := 1; k <= 20+3*rngLen; k++ {
		x = mulmod(x, 48271)
		if j := k - 21; j >= 0 {
			p[j/3][j%3] = x
		}
	}
	return p
}()

// mulmod returns a·b mod 2³¹−1 for a, b in [1, 2³¹−2] by two Mersenne
// folds. The second fold leaves at most 2³¹−1, which only a product
// divisible by the prime 2³¹−1 could reach, so no final subtraction is
// needed.
func mulmod(a, b uint64) uint64 {
	p := a * b
	p = p&modulus + p>>31
	return p&modulus + p>>31
}

// source is math/rand's rngSource with a lazily built state table.
type source struct {
	tap  int
	feed int
	left int    // draws before every word has been built; 0 = plain draws
	seed uint64 // the seed reduced as math/rand reduces it, in [1, 2³¹−2]
	vec  [rngLen]int64
}

// Seed reduces seed exactly as math/rand does and builds no words.
func (s *source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	s.left = lazyDraws
	seed %= modulus
	if seed < 0 {
		seed += modulus
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed = uint64(seed)
}

func (s *source) Int63() int64 { return int64(s.Uint64() & rngMask) }

func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.left > 0 {
		s.build()
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// build fills the words the current draw reads for the first time: feed's
// word on each of the first lazyDraws draws, and tap's until tap reaches
// the words feed built.
func (s *source) build() {
	s.vec[s.feed] = s.word(s.feed)
	if s.tap >= lazyDraws {
		s.vec[s.tap] = s.word(s.tap)
	}
	s.left--
}

// word is word i of math/rand's freshly seeded table.
func (s *source) word(i int) int64 {
	p := &powers[i]
	u := mulmod(s.seed, p[0])<<40 ^ mulmod(s.seed, p[1])<<20 ^ mulmod(s.seed, p[2])
	return int64(u) ^ rngCooked[i]
}

// New returns a generator whose stream equals rand.New(rand.NewSource(seed)).
func New(seed int64) *rand.Rand {
	s := new(source)
	s.Seed(seed)
	return rand.New(s)
}

var pool = sync.Pool{New: func() any { return rand.New(new(source)) }}

// Get returns a pooled generator seeded with seed: the same stream as
// New(seed), without the allocation when the pool has one.
func Get(seed int64) *rand.Rand {
	r := pool.Get().(*rand.Rand)
	r.Seed(seed)
	return r
}

// Put hands r back to the pool. The caller, and everything r was given to,
// must not draw from it afterwards.
func Put(r *rand.Rand) { pool.Put(r) }
