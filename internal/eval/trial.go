// Package eval is the experiment harness: it wires clients, servers,
// censors, and server-side strategies into the virtual network and
// reproduces every table, figure, and follow-up experiment in the paper's
// evaluation (see DESIGN.md's per-experiment index).
package eval

import (
	"fmt"
	"math/rand"
	"net/netip"

	"geneva/internal/apps"
	"geneva/internal/core"
	"geneva/internal/lazyrand"
	"geneva/internal/netsim"
	"geneva/internal/obs"
	"geneva/internal/tcpstack"
)

// Countries with modeled censors. CountryIndia is the Airtel sibling of
// the India ISP family (the paper's §5.2 measurement); Jio and Vodafone
// are separate countries from the harness's point of view because each
// ISP is an independent censor.
const (
	CountryNone          = ""
	CountryChina         = "china"
	CountryIndia         = "india"
	CountryIndiaJio      = "india-jio"
	CountryIndiaVodafone = "india-vodafone"
	CountryIran          = "iran"
	CountryKazakhstan    = "kazakhstan"
	CountryTurkmenistan  = "turkmenistan"
)

// ClientAddr and ServerAddr are the fixed endpoints of every trial: a
// client inside the censoring regime, a server outside it.
var (
	ClientAddr = netip.MustParseAddr("10.1.0.2")
	ServerAddr = netip.MustParseAddr("198.51.100.9")
)

// CensorCounter is implemented by every censor model: a middlebox that
// counts its censorship events.
type CensorCounter interface {
	netsim.Middlebox
	CensoredCount() int
}

// NewCensor builds the middlebox for a country, or nil for CountryNone.
// The registry is the single source of truth: adding a CensorDef makes the
// country constructible here with no further wiring. Every censor matches
// against censor.Default(); rng drives the stochastic ones (the GFW).
func NewCensor(country string, rng *rand.Rand) CensorCounter {
	if country == CountryNone {
		return nil
	}
	if d, ok := CensorByCountry(country); ok {
		return d.New(rng)
	}
	panic(fmt.Sprintf("eval: unknown country %q", country))
}

// Config describes one trial.
type Config struct {
	// Country selects the censor ("" = none, the §7 private network).
	Country string
	// Session is the application exchange to attempt.
	Session *apps.Session
	// Strategy is the server-side Geneva strategy (nil = no evasion).
	Strategy *core.Strategy
	// ClientOS defaults to tcpstack.DefaultClient.
	ClientOS tcpstack.Personality
	// Tries is the number of connection attempts; retries happen only if
	// the previous attempt's connection was torn down (RFC 7766 DNS
	// behaviour). Default 1.
	Tries int
	// Seed makes the trial reproducible.
	Seed int64
	// ClientHook, if set, can instrument the client endpoint before the
	// connection starts (the §5 follow-up experiments).
	ClientHook func(*tcpstack.Endpoint)
	// ClientAddress overrides the client's address (the §8 router
	// experiment places clients in different regions' prefixes).
	ClientAddress netip.Addr
	// ServerHook, if set, configures the server endpoint before the
	// connection starts (e.g. installing a core.Router instead of a
	// single-strategy engine).
	ServerHook func(*tcpstack.Endpoint)
	// WithTrace records a packet trace (waterfalls).
	WithTrace bool
	// Impairments adds seedable loss/duplication/reordering/jitter to both
	// directions of the path and arms endpoint retransmission. The zero
	// value leaves the network lossless, the retransmission timers unarmed,
	// and every trial byte-identical to an impairment-free build.
	Impairments netsim.Profile
	// Workers bounds the per-trial worker pool Rate/RateStats fan out on
	// (0 = the process default, Workers()). Purely a scheduling knob: every
	// trial derives its randomness from Seed and its own index, so results
	// are identical at any width.
	Workers int
}

// TrialConfig is the paper's §4.2 trial (the one recipe every experiment,
// Run, the fitness function and the explorer share): a client in country
// fetching forbidden content over protocol from a server running strategy
// (nil = no evasion), with the protocol's attempt budget (TriesFor), at
// seed. A trial that deviates from the recipe sets the field afterwards.
func TrialConfig(country, protocol string, strategy *core.Strategy, seed int64) Config {
	return Config{
		Country:  country,
		Session:  SessionFor(country, protocol, true),
		Strategy: strategy,
		Tries:    TriesFor(protocol),
		Seed:     seed,
	}
}

// Result of a trial.
type Result struct {
	// Success is the paper's criterion: no tear-down and correct data.
	Success bool
	// Established reports whether any attempt completed a handshake.
	Established bool
	// CensorEvents counts censorship actions across all attempts.
	CensorEvents int
	// Attempts is how many connections were made.
	Attempts int
	// Trace is the packet trace of the *last* attempt (if requested).
	Trace *netsim.Trace
}

// Rig is a wired-up client/censor/server sandbox that can run repeated
// connections against the same censor state.
type Rig struct {
	Client  *tcpstack.Endpoint
	Server  *tcpstack.Endpoint
	Net     *netsim.Network
	Censor  CensorCounter
	Session *apps.Session

	// rngs are the rig's pooled generators, one per stream (nil for a
	// stream the config leaves unused); release hands them back.
	rngs [numStreams]*rand.Rand
}

// NewRig builds the sandbox for a config.
func NewRig(cfg Config) *Rig {
	if cfg.ClientOS.Name == "" {
		cfg.ClientOS = tcpstack.DefaultClient
	}
	rig := &Rig{Session: cfg.Session}
	clientAddr := cfg.ClientAddress
	if !clientAddr.IsValid() {
		clientAddr = ClientAddr
	}
	client := tcpstack.NewEndpoint(clientAddr, cfg.ClientOS, rig.stream(cfg.Seed, streamClient))
	server := tcpstack.NewEndpoint(ServerAddr, tcpstack.DefaultServer, rig.stream(cfg.Seed, streamServer))
	server.NewServerApp = cfg.Session.ServerFactory()
	server.Listen(cfg.Session.Port)
	if cfg.Strategy != nil {
		server.Outbound = core.NewEngine(cfg.Strategy, rig.stream(cfg.Seed, streamEngine)).Outbound
	}

	cen := NewCensor(cfg.Country, rig.stream(cfg.Seed, streamCensor))
	n := netsim.New(client, server, cen)
	// Recycling is safe here because every component in the rig — endpoints,
	// censors, apps — copies what it keeps and never retains a delivered
	// *Packet (the Trace clones at record time), so delivered packets can go
	// straight back to the pool.
	n.RecyclePackets = true
	if cfg.WithTrace {
		n.Trace = &netsim.Trace{}
	}
	if cfg.Impairments.Enabled() {
		// A stream of its own keeps the impairment schedule independent of
		// the ISN, engine, and censor streams.
		n.SetImpairments(cfg.Impairments, rig.stream(cfg.Seed, streamImpairments))
		client.Retransmit = true
		server.Retransmit = true
	}
	client.Attach(n)
	server.Attach(n)
	if cfg.ClientHook != nil {
		cfg.ClientHook(client)
	}
	if cfg.ServerHook != nil {
		cfg.ServerHook(server)
	}
	rig.Client, rig.Server, rig.Net, rig.Censor = client, server, n, cen
	return rig
}

// stream takes the rig's pooled generator for stream s of the trial seeded
// seed.
func (r *Rig) stream(seed int64, s int) *rand.Rand {
	r.rngs[s] = lazyrand.Get(seed + int64(s))
	return r.rngs[s]
}

// release hands the rig's generators back to the pool. Nothing may run on
// the rig afterwards: its endpoints, engine, censor and network still hold
// them.
func (r *Rig) release() {
	for i, g := range r.rngs {
		if g != nil {
			lazyrand.Put(g)
			r.rngs[i] = nil
		}
	}
}

// Attempt runs one connection to completion (network quiet) and returns the
// client application.
func (r *Rig) Attempt() *apps.Script {
	if r.Net.Trace != nil {
		r.Net.Trace.Entries = nil // keep only the current attempt
	}
	app := r.Session.NewClient()
	r.Client.Connect(ServerAddr, r.Session.Port, app)
	r.Net.Run(0)
	return app
}

// CensorEvents returns the censor's event count (0 with no censor).
func (r *Rig) CensorEvents() int {
	if r.Censor == nil {
		return 0
	}
	return r.Censor.CensoredCount()
}

// Run executes the trial: up to cfg.Tries attempts, retrying only when the
// previous connection was torn down (the RFC 7766 client behaviour the
// paper leans on for DNS success rates). The rig's generators go back to
// the pool afterwards; the Result keeps only counts and the Trace, which
// holds clones, so it stays valid.
func Run(cfg Config) Result {
	rig := NewRig(cfg)
	res := rig.run(cfg.Tries)
	rig.release()
	return res
}

// Retry is the one reconnect rule, shared by trials and the fleet: a client
// whose attempt-th connection ended as app connects again when that attempt
// failed, is retryable (torn down — RFC 7766 — or any failure at all under
// retryAll) and the budget allows another attempt.
func Retry(app *apps.Script, attempt, budget int, retryAll bool) bool {
	return !app.Succeeded() && (app.Reset() || retryAll) && attempt < budget
}

// run is Run's try loop on an already built rig.
func (rig *Rig) run(tries int) Result {
	var res Result
	for {
		app := rig.Attempt()
		res.Attempts++
		res.Established = res.Established || app.Established()
		res.Success = app.Succeeded()
		if !Retry(app, res.Attempts, tries, false) {
			break // served, out of tries, or blackholed/corrupted: real clients stop
		}
	}
	res.CensorEvents = rig.CensorEvents()
	res.Trace = rig.Net.Trace
	mTrials.Inc()
	mAttempts.Add(uint64(res.Attempts))
	if res.Success {
		mTrialSuccess.Inc()
	}
	if res.Established {
		mTrialEstablished.Inc()
	}
	return res
}

// RateResult aggregates a batch of independent trials: the per-trial outcome
// counts geneva.Run surfaces. Every field is a sum of per-trial values whose
// randomness derives purely from the seed schedule, so a RateResult is
// bit-identical at any worker width.
type RateResult struct {
	// Trials is the number of independent connections simulated.
	Trials int
	// Succeeded counts trials meeting the paper's §4.2 criterion: no
	// tear-down and the client received the correct, unaltered data.
	Succeeded int
	// Established counts trials in which any attempt completed a handshake.
	Established int
	// Censored counts trials in which the censor acted at least once.
	Censored int
	// Attempts is the total number of connections across all trials
	// (retries included).
	Attempts int
	// CensorEvents is the total number of censorship actions observed.
	CensorEvents int
}

// Rate returns the success fraction, the §4.2 evasion rate.
func (r RateResult) Rate() float64 {
	if r.Trials == 0 {
		return 0
	}
	return float64(r.Succeeded) / float64(r.Trials)
}

// The seed schedule. Trial i of a batch rooted at seed runs at seed +
// i*trialStride, and each rig derives its rng streams at fixed offsets from
// its trial seed. SeedSchedule records exactly these in run manifests.
const (
	trialStride = 7919

	streamClient      = 0 // client ISNs and ports
	streamServer      = 1
	streamEngine      = 2 // the server's strategy engine
	streamCensor      = 3
	streamImpairments = 4 // loss, duplication, reordering, jitter
	numStreams        = 5
)

// SeedSchedule is the manifest's record of the seed schedule rooted at base.
func SeedSchedule(base int64) obs.SeedSchedule {
	return obs.SeedSchedule{
		Base:      base,
		TrialStep: trialStride,
		Streams: map[string]int64{
			"client":      streamClient,
			"server":      streamServer,
			"engine":      streamEngine,
			"censor":      streamCensor,
			"impairments": streamImpairments,
		},
	}
}

// RateStats runs trials independent trials of cfg (varying the seed) and
// returns the aggregated outcome counts. Trials share no state — every rig
// is built from its own seed — so they run on a worker pool bounded by
// cfg.Workers (0 = the process default; 1 runs them inline, in order). Each
// trial keeps only its counts, so once it settles its generators go back to
// the pool and the rest of its rig is garbage; the fold is a commutative
// sum, identical at any width.
func RateStats(cfg Config, trials int) RateResult { return rateStats(cfg, trials, trialStride, nil) }

// rateStats is the one trial fold: trial i runs at cfg.Seed + i*stride, with
// an optional edit applied to its rig (given the trial seed) before the
// first attempt — the ablations rewrite censor parameters there, and the §8
// router experiment installs a router seeded per trial.
func rateStats(cfg Config, trials int, stride int64, edit func(r *Rig, seed int64)) RateResult {
	workers := cfg.Workers
	if workers <= 0 {
		workers = Workers()
	}
	per := make([]RateResult, trials)
	RunParallel(workers, trials, func(i int) {
		c := cfg
		c.Seed = cfg.Seed + int64(i)*stride
		rig := NewRig(c)
		if edit != nil {
			edit(rig, c.Seed)
		}
		res := rig.run(c.Tries)
		rig.release()
		per[i] = RateResult{Trials: 1, Attempts: res.Attempts, CensorEvents: res.CensorEvents}
		if res.Success {
			per[i].Succeeded = 1
		}
		if res.Established {
			per[i].Established = 1
		}
		if res.CensorEvents > 0 {
			per[i].Censored = 1
		}
	})
	var out RateResult
	for _, r := range per {
		out.Trials += r.Trials
		out.Succeeded += r.Succeeded
		out.Established += r.Established
		out.Censored += r.Censored
		out.Attempts += r.Attempts
		out.CensorEvents += r.CensorEvents
	}
	return out
}

// Rate is RateStats reduced to the success fraction.
func Rate(cfg Config, trials int) float64 {
	return RateStats(cfg, trials).Rate()
}
