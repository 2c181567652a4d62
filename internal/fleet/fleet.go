// Package fleet is the deployment-scale serving harness for the paper's §8
// model: one server endpoint behind a core.Router serves a mixed-country,
// mixed-protocol population of unmodified clients, picking each client's
// strategy from nothing but the address in its SYN.
//
// The workload is partitioned into cells. A cell is one shared virtual
// network — one censor instance, one server whose core.Router serves routed
// clients their strategy, and several client endpoints inside the same
// country — on which connections run in waves of genuinely concurrent flows (their packets
// interleave through the same censor, so per-flow TCB isolation and
// cross-connection censor state are exercised for real: a GFW residual
// window opened by one client's censored flow tears down other clients'
// flows to the same server port).
//
// Every cell owns its own virtual clock and event queue, so cells are
// independent between wave barriers. For scheduling they are grouped into
// shards — contiguous runs of a country's cells — and the whole fleet
// advances in wave lockstep: all shards run wave w concurrently on a
// bounded worker pool, then meet at a barrier where the only genuine
// cross-cell censor state — the GFW's ~90 s residual-censorship windows —
// is merged. Each cell exports its live windows as (server key, time
// remaining); the barrier folds them into a per-country ledger with a
// max-merge (commutative and associative, so the ledger is identical in
// any merge order); at the next wave's start each cell of the country is
// re-seeded with every ledger window that outlives the wave gap. With the
// default 120 s gap nothing outlives the 90 s window and the ledger is
// provably empty — sharding changes nothing — while short gaps let one
// cell's collateral poison a whole country's fleet, the paper's
// deployment-scale risk, at any shard layout.
//
// Every seed derives from the cell's stable index in the workload plan —
// never from scheduling order — and the ledger merge is order-independent,
// so a Result is bit-identical at any worker and shard width.
package fleet

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"geneva/internal/apps"
	"geneva/internal/censor"
	"geneva/internal/core"
	"geneva/internal/eval"
	"geneva/internal/lazyrand"
	"geneva/internal/netsim"
	"geneva/internal/obs"
	"geneva/internal/selector"
	"geneva/internal/tcpstack"
)

// cellSeedStride separates the seed spaces of consecutive cells; each cell
// derives a handful of offset streams (see the manifest's seed schedule)
// from Seed + cellIndex*cellSeedStride.
const cellSeedStride = 100003

// Per-cell seed-stream offsets, recorded in the manifest so a Result alone
// documents how to reproduce the run.
const (
	seedServer      = 1  // server endpoint ISN/port rng
	seedRouter      = 2  // registry-pinned arm: seedRouter + its strategy number
	seedCensor      = 3  // censor model rng
	seedImpairments = 4  // network impairment schedule
	seedSelector    = 5  // strategy-selection exploration rng (when enabled)
	seedClients     = 10 // client endpoint s uses seedClients + s
	// seedArmBase places a run-wide portfolio's arm a at seedArmBase + a,
	// far above the client slots (10..260), so arm streams never collide
	// with any other per-cell stream.
	seedArmBase = 1000
)

// defaultWaveGap is the virtual idle time between waves of a cell: long
// enough that cross-wave censor state (the GFW's ~90 s residual window)
// expires, so each wave starts from a clean slate unless the workload
// shortens it deliberately.
const defaultWaveGap = 120 * time.Second

// defaultRequestGap is the virtual think time between a keep-alive session's
// exchanges when the workload asks for multiple requests but no explicit gap.
const defaultRequestGap = 30 * time.Second

// Workload describes a fleet run. The zero value of every field selects a
// sensible default; the exported fields mirror geneva.Deployment (the public
// facade aliases this type).
type Workload struct {
	// Countries in the client mix, each at most once (default: every
	// registered censor, in registry order). eval.CountryNone adds an
	// uncensored client population.
	Countries []string
	// Protocols in the mix (default "http"); connections cycle through them.
	Protocols []string
	// Connections is the total number of client connections across the
	// fleet (default 500), split evenly across Countries.
	Connections int
	// ClientsPerCell is the number of routed client endpoints sharing one
	// cell network, i.e. the number of concurrent flows per routed wave
	// (default 4).
	ClientsPerCell int
	// WavesPerCell is the number of connection waves each cell runs
	// (default 4). Even waves carry routed clients only; odd waves add the
	// unprotected clients, so collateral damage happens under observation.
	WavesPerCell int
	// UnprotectedPerCell is the number of clients per cell whose addresses
	// match no router prefix — the paper's geolocation-miss case. They run
	// the same forbidden sessions with no server-side help, get censored,
	// and (China) poison the server port for everyone else in the cell.
	// 0 = default (1); negative = none.
	UnprotectedPerCell int
	// WaveGap is the virtual idle time between waves (0 = default 120 s,
	// past the GFW residual window; negative = no gap, so residual state
	// from one wave bleeds into the next — within a cell and, through the
	// wave-barrier ledger, across every cell of the country).
	WaveGap time.Duration
	// Seed fixes all randomness; two equal Workloads agree exactly.
	Seed int64
	// Workers bounds the cell worker pool (0 = the process default,
	// eval.Workers()). Purely a scheduling knob: the Result is
	// bit-identical at any width.
	Workers int
	// Shards bounds how many scheduling shards each country's cells are
	// grouped into (0 = one shard per cell, the finest and default). A
	// shard's cells run sequentially within a wave; distinct shards run
	// concurrently on the worker pool. Like Workers this is purely a
	// scheduling knob — residual state is merged per country at the wave
	// barrier regardless of shard layout, so the Result and manifest are
	// bit-identical at any shard width (TestFleetDeterminism pins the
	// workers × shards matrix).
	Shards int
	// Impairments degrades every cell network symmetrically in both
	// directions and arms endpoint retransmission; the zero value keeps
	// the links lossless. Loss, Duplicate and Reorder are probabilities in
	// [0,1]; Jitter must not be negative.
	Impairments netsim.Profile
	// SessionRequests is the number of keep-alive request/response exchanges
	// each connection carries (default 1, the classic one-shot session).
	// Only protocols whose transcript is a single request answered by a
	// single response extend (HTTP, HTTPS, DNS — see apps.Session.KeepAlive);
	// the others run one-shot regardless, and their planned-request
	// accounting says so.
	SessionRequests int
	// RequestGap is the virtual think time between a keep-alive session's
	// exchanges (0 with SessionRequests > 1 = default 30 s). Together with
	// SessionRequests it stretches one connection across minutes of virtual
	// time — long enough for censor state with a lifetime (GFW and TMC
	// residual windows, Jio blackholing) to straddle a single client's
	// session instead of always expiring between connections.
	RequestGap time.Duration
	// Reconnect is the client's reconnect-after-failure policy. The zero
	// value reproduces the harness's historical behaviour exactly: retry
	// only abortively-torn-down attempts, immediately, within the
	// protocol's eval.TriesFor budget.
	Reconnect ReconnectPolicy
	// Portfolio is the ordered strategy list routed clients are served
	// from: each connection attempt gets one arm, arm 0 unless Selection
	// picks another. Zero value (with Selection also unset): every country
	// is served a one-arm portfolio of its §8 registry strategy
	// (eval.DeployPortfolio), byte-identical to pre-control-plane builds.
	Portfolio selector.Portfolio
	// Selection enables the online strategy-selection control plane: the
	// bandit picks each attempt's arm and is rewarded with its outcome.
	// Zero value: disabled, arm 0 always. Enabled with a zero Portfolio,
	// the distinct §8 deployment strategies (eval.DefaultPortfolio) are the
	// arms. Selector state merges at wave barriers in stable cell order, so
	// results stay bit-identical at any Workers × Shards.
	Selection selector.Selection
	// Shift re-tunes censor parameters mid-run (zero value: never). It is
	// the collapse-and-recover scenario's lever: shift the parameter a
	// pinned strategy depends on and watch the selector quarantine the arm
	// and re-explore.
	Shift CensorShift
}

// CensorShift is a deterministic mid-run change to censor calibration
// parameters, applied at a wave boundary to every cell whose censor
// implements censor.ParamShifter.
type CensorShift struct {
	// AtWave is the wave index at whose start the shift applies (0 = from
	// the beginning; negative is rejected). Waves 0..AtWave-1 run the
	// calibrated parameters.
	AtWave int
	// Country restricts the shift to one country's cells ("" = all). It
	// must be one of the workload's Countries.
	Country string
	// Params maps parameter names to new values, bare ("prst") or
	// protocol-scoped ("http.prst") — see censor.ParamShifter. nil
	// disables the shift. Every targeted censor that takes shifts must
	// accept every entry, and at least one targeted censor must take them.
	Params map[string]float64
}

// Enabled reports whether the shift does anything.
func (cs CensorShift) Enabled() bool { return len(cs.Params) > 0 }

// check applies the shift to a throwaway censor of every targeted country
// (Country, or all of countries) that implements censor.ParamShifter, so an
// entry one of them rejects fails before the run; a shift that reaches no
// such censor would change nothing and fails too.
func (cs CensorShift) check(countries []string) error {
	if !cs.Enabled() {
		return nil
	}
	if cs.Country != "" {
		countries = []string{cs.Country}
	}
	shifters := 0
	for _, c := range countries {
		// The censor never sees a packet, so it needs no rng.
		if sh, ok := eval.NewCensor(c, nil).(censor.ParamShifter); ok {
			shifters++
			if err := sh.ShiftParams(cs.Params); err != nil {
				return err
			}
		}
	}
	if shifters == 0 {
		return fmt.Errorf("no censor among %q takes parameter shifts", countries)
	}
	return nil
}

// ReconnectPolicy says how a client behaves after a connection attempt
// fails: how long it waits, how many times it tries, and which failures it
// retries at all. The zero value is the historical policy (teardown-only
// retries, no backoff, per-protocol attempt budget).
type ReconnectPolicy struct {
	// MaxAttempts caps total connection attempts per planned connection,
	// reconnects included (0 = the protocol's eval.TriesFor budget, the
	// historical default; 1 = give up after the first failure; negative is
	// rejected).
	MaxAttempts int
	// Backoff is the virtual time a client waits before each reconnect
	// (0 = reconnect immediately; negative is rejected). Against censors
	// with expiring state, backoff is the difference between reconnecting
	// *into* a residual window and reconnecting after it lapses.
	Backoff time.Duration
	// RetryAll reconnects after any failure — blackholed, corrupted, or
	// never-established attempts included — not only after an abortive
	// teardown (the historical trigger).
	RetryAll bool
}

// CountryStats aggregates one country's slice of the fleet.
type CountryStats struct {
	// Connections and Succeeded cover every kind of client.
	Connections int `json:"connections"`
	Succeeded   int `json:"succeeded"`
	// Routed counts connections from clients the router matched, in waves
	// with no unprotected traffic — the clean §8 deployment measurement.
	Routed          int `json:"routed"`
	RoutedSucceeded int `json:"routed_succeeded"`
	// Contested counts routed connections that shared their wave with
	// unprotected clients, so censor state those clients trip (teardown,
	// residual windows) can hit them as collateral.
	Contested          int `json:"contested"`
	ContestedSucceeded int `json:"contested_succeeded"`
	// Unprotected counts connections from clients outside every route.
	Unprotected          int `json:"unprotected"`
	UnprotectedSucceeded int `json:"unprotected_succeeded"`
	// CensorEvents totals the country's censorship actions.
	CensorEvents int `json:"censor_events"`

	// Long-horizon session outcomes. RequestsAttempted is the workload's
	// demand — every exchange the plan asked the country's connections to
	// carry — and RequestsServed is how many arrived intact, across initial
	// attempts and reconnects alike.
	RequestsAttempted int `json:"requests_attempted"`
	RequestsServed    int `json:"requests_served"`
	// FirstAttemptSucceeded counts connections whose FIRST attempt served
	// the whole session — the classic evasion measurement, unchanged by any
	// reconnect policy.
	FirstAttemptSucceeded int `json:"first_attempt_succeeded"`
	// Reconnects counts attempts beyond each connection's first; Recoveries
	// counts connections that failed at least once and still finished their
	// session on a later attempt.
	Reconnects int `json:"reconnects"`
	Recoveries int `json:"recoveries"`
	// reconnectsToRecover sums Reconnects over recovered connections only
	// (the numerator of MeanReconnectsToRecovery).
	ReconnectsToRecover int `json:"reconnects_to_recover"`
	// UptimeVirtual sums the virtual time connections spent visibly working
	// (from each attempt's SYN to its last verified byte); LifetimeVirtual
	// sums each connection's planned-or-actual session span. Their ratio is
	// Availability. JSON values are nanoseconds.
	UptimeVirtual   time.Duration `json:"uptime_virtual_ns"`
	LifetimeVirtual time.Duration `json:"lifetime_virtual_ns"`

	// Selection maps each portfolio strategy (by canonical text, in
	// portfolio order under the hood) to its lifetime selection outcomes
	// in this country: how often the control plane picked it and how each
	// attempt ended. Present only on Portfolio/Selection runs — absent
	// (and omitted from JSON) on pinned runs, keeping their output
	// byte-identical to pre-control-plane builds.
	Selection map[string]selector.ArmReport `json:"selection,omitempty"`
}

// EvasionRate is the clean routed success fraction — the per-country number
// to hold against Table 2.
func (c CountryStats) EvasionRate() float64 {
	if c.Routed == 0 {
		return 0
	}
	return float64(c.RoutedSucceeded) / float64(c.Routed)
}

// Availability is the user-visible fraction of virtual session lifetime the
// country's clients had a working connection — the long-horizon outcome a
// first-connection evasion rate cannot see (a session torn down mid-way and
// never recovered scores full evasion but one-third availability).
func (c CountryStats) Availability() float64 {
	if c.LifetimeVirtual <= 0 {
		return 0
	}
	return float64(c.UptimeVirtual) / float64(c.LifetimeVirtual)
}

// MeanReconnectsToRecovery is the average number of reconnect attempts a
// recovered connection needed before its session finished (0 when nothing
// recovered).
func (c CountryStats) MeanReconnectsToRecovery() float64 {
	if c.Recoveries == 0 {
		return 0
	}
	return float64(c.ReconnectsToRecover) / float64(c.Recoveries)
}

// add folds another tally into c, field by field. Selection is not summed:
// Run fills it in from the control plane after the merge.
func (c *CountryStats) add(o CountryStats) {
	c.Connections += o.Connections
	c.Succeeded += o.Succeeded
	c.Routed += o.Routed
	c.RoutedSucceeded += o.RoutedSucceeded
	c.Contested += o.Contested
	c.ContestedSucceeded += o.ContestedSucceeded
	c.Unprotected += o.Unprotected
	c.UnprotectedSucceeded += o.UnprotectedSucceeded
	c.CensorEvents += o.CensorEvents
	c.RequestsAttempted += o.RequestsAttempted
	c.RequestsServed += o.RequestsServed
	c.FirstAttemptSucceeded += o.FirstAttemptSucceeded
	c.Reconnects += o.Reconnects
	c.Recoveries += o.Recoveries
	c.ReconnectsToRecover += o.ReconnectsToRecover
	c.UptimeVirtual += o.UptimeVirtual
	c.LifetimeVirtual += o.LifetimeVirtual
}

// Result is the structured outcome of a fleet run. Each connection is
// counted once, into its country's CountryStats, when it settles; the fleet
// totals and Outcomes are sums over PerCountry, and the fleet.* counters in
// the Manifest are read off the finished Result. It contains no wall-clock
// measurements and no worker- or shard-width echo, so two runs of the same
// Workload are bit-identical regardless of scheduling (TestFleetDeterminism
// pins this).
type Result struct {
	// Connections and Succeeded total the whole fleet (sums over
	// PerCountry).
	Connections int `json:"connections"`
	Succeeded   int `json:"succeeded"`
	// RequestsAttempted/RequestsServed and the virtual uptime/lifetime sums
	// total the per-country long-horizon outcomes.
	RequestsAttempted int           `json:"requests_attempted"`
	RequestsServed    int           `json:"requests_served"`
	UptimeVirtual     time.Duration `json:"uptime_virtual_ns"`
	LifetimeVirtual   time.Duration `json:"lifetime_virtual_ns"`
	// Cells is the number of independent cell networks the plan produced.
	Cells int `json:"cells"`
	// PerCountry breaks the fleet down by censor.
	PerCountry map[string]CountryStats `json:"per_country"`
	// Outcomes is the connection-outcome mix: "served" (correct data, no
	// teardown), "torn_down" (established, then censored or corrupted),
	// "never_established" (handshake never completed on any attempt).
	Outcomes map[string]int `json:"outcomes"`
	// Fallbacks counts collapse-quarantine events: how many times the
	// control plane benched a cratered incumbent strategy and re-explored.
	// Always 0 (and omitted from JSON) on pinned runs.
	Fallbacks int `json:"fallbacks,omitempty"`
	// Manifest is the diffable run record (geneva-run-manifest/v1): the
	// workload config, the cell seed schedule, and — when obs collection is
	// enabled — every counter. Worker and shard width are deliberately
	// absent: they cannot affect what the fleet did.
	Manifest obs.Manifest `json:"manifest"`
}

// Availability is the fleet-wide user-visible availability (see
// CountryStats.Availability).
func (r Result) Availability() float64 {
	if r.LifetimeVirtual <= 0 {
		return 0
	}
	return float64(r.UptimeVirtual) / float64(r.LifetimeVirtual)
}

// connPlan is one planned connection.
type connPlan struct {
	wave        int
	slot        int // endpoint slot within the cell
	unprotected bool
	protocol    string
}

// cellPlan is one cell's share of the workload.
type cellPlan struct {
	index   int // stable global cell index
	country string
	conns   []connPlan
}

// cellResult is one cell's running tally. runWave adds each connection to
// it exactly once, at the moment the connection settles for good; nothing
// per-connection outlives its wave.
type cellResult struct {
	stats         CountryStats
	tornDown      int // established, then censored or corrupted
	unestablished int // handshake never completed on any attempt
	// Residual windows this cell exported into its country's ledger at wave
	// barriers, and ledger windows planted into its censor at wave starts.
	residualPublished int
	residualSeeded    int
}

// withDefaults resolves the zero-value fields. It returns a copy; the
// caller's Workload is never mutated.
func (wl Workload) withDefaults() Workload {
	if len(wl.Countries) == 0 {
		wl.Countries = eval.CensoredCountries()
	}
	if len(wl.Protocols) == 0 {
		wl.Protocols = []string{"http"}
	}
	if wl.Connections <= 0 {
		wl.Connections = 500
	}
	if wl.ClientsPerCell <= 0 {
		wl.ClientsPerCell = 4
	}
	if wl.WavesPerCell <= 0 {
		wl.WavesPerCell = 4
	}
	switch {
	case wl.UnprotectedPerCell == 0:
		wl.UnprotectedPerCell = 1
	case wl.UnprotectedPerCell < 0:
		wl.UnprotectedPerCell = 0
	}
	switch {
	case wl.WaveGap == 0:
		wl.WaveGap = defaultWaveGap
	case wl.WaveGap < 0:
		wl.WaveGap = 0
	}
	if wl.SessionRequests <= 0 {
		wl.SessionRequests = 1
	}
	switch {
	case wl.RequestGap == 0 && wl.SessionRequests > 1:
		wl.RequestGap = defaultRequestGap
	case wl.RequestGap < 0:
		wl.RequestGap = 0
	}
	return wl
}

// validate rejects workloads the harness cannot simulate or would silently
// ignore part of, with errors that name the field and the valid values.
func (wl Workload) validate() error {
	for i, c := range wl.Countries {
		if !eval.ValidCountry(c) {
			return fmt.Errorf("fleet: %w", eval.CheckCountryProtocol(c, wl.Protocols[0]))
		}
		if slices.Contains(wl.Countries[:i], c) {
			return fmt.Errorf("fleet: Countries lists %q more than once", c)
		}
	}
	for _, p := range wl.Protocols {
		if !eval.ValidProtocol(p) {
			return fmt.Errorf("fleet: %w", eval.CheckCountryProtocol(wl.Countries[0], p))
		}
	}
	if wl.ClientsPerCell > 250 {
		return fmt.Errorf("fleet: ClientsPerCell %d exceeds the 250 addresses available per cell prefix", wl.ClientsPerCell)
	}
	if wl.Selection.Enabled() {
		if err := wl.Selection.Validate(); err != nil {
			return fmt.Errorf("fleet: %w", err)
		}
	}
	if c := wl.Shift.Country; c != "" && !slices.Contains(wl.Countries, c) {
		return fmt.Errorf("fleet: Shift.Country: %w %q (not among Countries %q)", eval.ErrUnknownCountry, c, wl.Countries)
	}
	if wl.Shift.AtWave < 0 {
		return fmt.Errorf("fleet: Shift.AtWave %d is negative", wl.Shift.AtWave)
	}
	if err := wl.Shift.check(wl.Countries); err != nil {
		return fmt.Errorf("fleet: Shift.Params: %w", err)
	}
	if wl.Reconnect.MaxAttempts < 0 {
		return fmt.Errorf("fleet: Reconnect.MaxAttempts %d is negative", wl.Reconnect.MaxAttempts)
	}
	if wl.Reconnect.Backoff < 0 {
		return fmt.Errorf("fleet: Reconnect.Backoff %v is negative", wl.Reconnect.Backoff)
	}
	if err := wl.Impairments.Validate(); err != nil {
		return fmt.Errorf("fleet: Impairments.%w", err)
	}
	return nil
}

// control is the run's resolved strategy-delivery mode.
type control struct {
	// portfolio is the run-wide arm list; zero on registry-pinned runs,
	// whose cells are each served their country's one-arm deployment
	// portfolio instead.
	portfolio selector.Portfolio
	// state is the merged bandit state; nil when Selection is disabled
	// (arm 0 then serves every attempt).
	state *selector.State
}

// resolveControl interprets the Portfolio × Selection matrix. Selection
// without a portfolio races the distinct §8 deployment strategies against
// each other.
func resolveControl(wl Workload) control {
	ctl := control{portfolio: wl.Portfolio}
	if wl.Selection.Enabled() {
		if ctl.portfolio.IsZero() {
			ctl.portfolio = eval.DefaultPortfolio()
		}
		ctl.state = selector.NewState(wl.Selection, ctl.portfolio.Len())
	}
	return ctl
}

// plan partitions the workload into cells: connections split evenly across
// countries (earlier countries absorb the remainder), each country's share
// chunked into cells wave by wave. The enumeration order here is the only
// order that matters — global connection and cell indices are assigned by
// it, and every seed derives from them. Each country's cells come out
// contiguous, which is what lets buildShards slice them without sorting.
func plan(wl Workload) []cellPlan {
	var cells []cellPlan
	global := 0
	base := wl.Connections / len(wl.Countries)
	extra := wl.Connections % len(wl.Countries)
	for ci, country := range wl.Countries {
		quota := base
		if ci < extra {
			quota++
		}
		for quota > 0 {
			cell := cellPlan{index: len(cells), country: country}
			for w := 0; w < wl.WavesPerCell && quota > 0; w++ {
				for s := 0; s < wl.ClientsPerCell && quota > 0; s++ {
					cell.conns = append(cell.conns, connPlan{
						wave:     w,
						slot:     s,
						protocol: wl.Protocols[global%len(wl.Protocols)],
					})
					global++
					quota--
				}
				if w%2 == 1 {
					for u := 0; u < wl.UnprotectedPerCell && quota > 0; u++ {
						cell.conns = append(cell.conns, connPlan{
							wave:        w,
							slot:        wl.ClientsPerCell + u,
							unprotected: true,
							protocol:    wl.Protocols[global%len(wl.Protocols)],
						})
						global++
						quota--
					}
				}
			}
			cells = append(cells, cell)
		}
	}
	return cells
}

// clientAddr places a cell's client endpoints: routed slots inside the
// country's router prefix, unprotected slots (and uncensored populations)
// in ranges no route covers.
func clientAddr(country string, slot int, unprotected bool) netip.Addr {
	if unprotected {
		return netip.AddrFrom4([4]byte{172, 16, 0, byte(2 + slot)})
	}
	p, ok := eval.RouterPrefixes[country]
	if !ok { // eval.CountryNone: an uncensored client outside every prefix
		return netip.AddrFrom4([4]byte{198, 18, 0, byte(2 + slot)})
	}
	a := p.Addr().As4()
	a[3] = byte(2 + slot)
	return netip.AddrFrom4(a)
}

// residualLedger maps a residually censored server ip:port to the longest
// remaining window any cell of one country reported at the last wave
// barrier.
type residualLedger map[netip.AddrPort]time.Duration

// inflight is one connection awaiting settlement in a wave: its current
// attempt, plus the per-connection state that rides along across reconnects
// until the connection settles into the cell's tally.
type inflight struct {
	idx       int // index into plan.conns
	app       *apps.Script
	connectAt time.Duration // virtual time the attempt's SYN left
	exchanges int           // exchanges this attempt's script carries
	arm       int           // portfolio arm serving the attempt

	attempts     int
	planned      int           // exchanges the plan asked the connection to carry
	served       int           // exchanges that arrived intact, across all attempts
	established  bool          // some attempt completed its handshake
	firstSuccess bool          // the FIRST attempt served the whole session
	uptime       time.Duration // Σ per-attempt SYN → last verified byte
}

// scriptKey identifies one client-script shape: scripts of the same protocol
// but different keep-alive lengths (a reconnect resumes with only the
// remaining exchanges) have different transcripts, so the freelists keep
// them apart.
type scriptKey struct {
	proto string
	exch  int
}

// portedScript is a leased server-side script, keyed by the port whose
// session template it clones.
type portedScript struct {
	port uint16
	s    *apps.Script
}

// cell is one wired cell network, alive from construction to the end of its
// last wave so the sharded scheduler can drive all cells in wave lockstep.
// Everything in a cell runs on a single goroutine per wave against the
// cell's own virtual clock; only the shard's export ledger leaves it.
type cell struct {
	wl   Workload
	plan cellPlan

	server    *tcpstack.Endpoint
	slots     map[int]*tcpstack.Endpoint
	sessions  map[string]*apps.Session // full-length session per protocol
	base      map[string]*apps.Session // single-exchange originals (reconnect tails derive from these)
	tails     map[scriptKey]*apps.Session
	factories map[uint16]func(*tcpstack.Conn) tcpstack.App
	net       *netsim.Network
	cen       eval.CensorCounter
	resid     censor.ResidualCarrier // non-nil iff the censor shares residual state
	shifter   censor.ParamShifter    // non-nil iff the censor can shift mid-run
	shifted   bool
	router    *core.Router // pooled, route-free: delivery is by PinClient
	rngs      []*rand.Rand

	// Strategy delivery: one engine per portfolio arm, nil on unrouted
	// cells (the uncensored population matches no route, so no server-side
	// strategy applies to it). selCell and selRng are nil unless Selection
	// is enabled.
	arms    *eval.PortfolioLease
	selCell *selector.Cell
	selRng  *rand.Rand

	byWave  [][]int // wave -> indices into plan.conns (contiguous from 0)
	res     cellResult
	started bool

	// Script freelists: client scripts by protocol and exchange count,
	// server scripts by port. Leases are reclaimed once their connection
	// can no longer receive a packet (settled attempts; wave end for
	// server scripts).
	clientFree map[scriptKey][]*apps.Script
	serverFree map[uint16][]*apps.Script
	serverLive []portedScript
	live       []inflight
}

// rng takes a pooled generator seeded with seed and remembers it for
// release at cell finish.
func (c *cell) rng(seed int64) *rand.Rand {
	r := lazyrand.Get(seed)
	c.rngs = append(c.rngs, r)
	return r
}

// routerPool recycles the cells' route-free routers; ResetFlows at release
// leaves only the flow-cache and pin-map capacity behind.
var routerPool = sync.Pool{New: func() any { return core.NewRouter(nil) }}

// newCell wires one cell — server + pooled router and portfolio engines,
// censor, clients — without running anything. The construction order (and
// thus every rng draw) is exactly the plan order, never scheduling order.
func newCell(wl Workload, cp cellPlan, ctl control) *cell {
	c := &cell{wl: wl, plan: cp}
	cellSeed := wl.Seed + int64(cp.index)*cellSeedStride

	c.server = tcpstack.NewEndpoint(eval.ServerAddr, tcpstack.DefaultServer, c.rng(cellSeed+seedServer))
	c.router = routerPool.Get().(*core.Router)
	c.server.Outbound = c.router.Outbound
	c.server.ReleaseClosed = true

	// Routed countries get one engine per portfolio arm; pullArm pins the
	// attempt's arm to the client's address before each connect. A
	// registry-pinned run serves the country's one-arm deployment
	// portfolio, seeded by strategy number so the stream is a function of
	// the strategy, never of country order. Unrouted countries (the
	// uncensored population) get nothing: the server does not know them,
	// so no strategy applies.
	if p, offset, ok := eval.DeployPortfolio(cp.country); ok {
		seed := cellSeed + seedRouter + offset
		if !ctl.portfolio.IsZero() {
			p, seed = ctl.portfolio, cellSeed+seedArmBase
		}
		c.arms = eval.AcquirePortfolioEngines(p, seed)
		if ctl.state != nil {
			c.selCell = ctl.state.NewCell()
			c.selRng = c.rng(cellSeed + seedSelector)
		}
	}

	// One forbidden session per protocol in the cell; the server listens on
	// every port and dispatches the matching application by the port the
	// client connected to. Fleet scripts close after their transcripts
	// (CloseAtEnd) so both sides' connections finish and recycle — without
	// that, a 10^5-connection run accretes every connection ever served in
	// the server's table.
	c.sessions = map[string]*apps.Session{}
	c.base = map[string]*apps.Session{}
	c.factories = map[uint16]func(*tcpstack.Conn) tcpstack.App{}
	for _, cn := range cp.conns {
		if _, ok := c.sessions[cn.protocol]; ok {
			continue
		}
		sess := eval.SessionFor(cp.country, cn.protocol, true)
		c.base[cn.protocol] = sess
		if wl.SessionRequests > 1 {
			// Extend the one-shot session into a keep-alive one. Protocols
			// whose transcript isn't a single exchange come back unchanged
			// and keep running one-shot. The server factory installed below
			// answers each request as it arrives, so the same listener also
			// serves shorter reconnect-tail sessions.
			sess = sess.KeepAlive(wl.SessionRequests, wl.RequestGap)
		}
		c.sessions[cn.protocol] = sess
		c.factories[sess.Port] = sess.ServerFactory()
		c.server.Listen(sess.Port)
	}
	c.clientFree = make(map[scriptKey][]*apps.Script, len(c.sessions))
	c.serverFree = make(map[uint16][]*apps.Script, len(c.sessions))
	c.server.NewServerApp = func(conn *tcpstack.Conn) tcpstack.App {
		port := conn.Flow().SrcPort
		if l := c.serverFree[port]; len(l) > 0 {
			s := l[len(l)-1]
			l[len(l)-1] = nil
			c.serverFree[port] = l[:len(l)-1]
			s.Restart()
			c.serverLive = append(c.serverLive, portedScript{port: port, s: s})
			return s
		}
		s := c.factories[port](conn).(*apps.Script)
		s.CloseAtEnd = true
		c.serverLive = append(c.serverLive, portedScript{port: port, s: s})
		return s
	}

	// Client endpoints, one per slot the plan uses.
	c.slots = map[int]*tcpstack.Endpoint{}
	var hosts []netsim.Host
	for _, cn := range cp.conns {
		if _, ok := c.slots[cn.slot]; ok {
			continue
		}
		ep := tcpstack.NewEndpoint(clientAddr(cp.country, cn.slot, cn.unprotected),
			tcpstack.DefaultClient, c.rng(cellSeed+seedClients+int64(cn.slot)))
		ep.ReleaseClosed = true
		c.slots[cn.slot] = ep
		hosts = append(hosts, ep)
	}

	c.cen = eval.NewCensor(cp.country, c.rng(cellSeed+seedCensor))
	c.resid, _ = c.cen.(censor.ResidualCarrier)
	c.shifter, _ = c.cen.(censor.ParamShifter)
	c.net = netsim.NewMulti(c.server, hosts, c.cen)
	c.net.RecyclePackets = true
	if wl.Impairments.Enabled() {
		c.net.SetImpairments(wl.Impairments, c.rng(cellSeed+seedImpairments))
		c.server.Retransmit = true
		for _, ep := range c.slots {
			ep.Retransmit = true
		}
	}
	c.server.Attach(c.net)
	for _, ep := range c.slots {
		ep.Attach(c.net)
	}

	// plan assigns waves contiguously from 0, in order, so the per-wave
	// index lists slot straight into a slice sized by the last wave.
	c.byWave = make([][]int, cp.conns[len(cp.conns)-1].wave+1)
	for i, cn := range cp.conns {
		c.byWave[cn.wave] = append(c.byWave[cn.wave], i)
	}
	return c
}

// drain runs the cell network until no event is pending.
func (c *cell) drain() {
	for !c.net.Quiet() {
		c.net.Run(0)
	}
}

// sessionFor returns the session a new attempt should run: the protocol's
// full session when the whole transcript is still owed, or a shorter
// keep-alive tail carrying only the m exchanges a reconnecting client has
// left. Tails are cached per length — a cell reconnects into the same few
// shapes over and over.
func (c *cell) sessionFor(proto string, m int) *apps.Session {
	full := c.sessions[proto]
	if m >= full.Exchanges() {
		return full
	}
	if m <= 1 {
		return c.base[proto]
	}
	k := scriptKey{proto: proto, exch: m}
	if s, ok := c.tails[k]; ok {
		return s
	}
	s := c.base[proto].KeepAlive(m, c.wl.RequestGap)
	if c.tails == nil {
		c.tails = map[scriptKey]*apps.Session{}
	}
	c.tails[k] = s
	return s
}

// clientScript leases a client script for one session shape: freelist first,
// session clone after.
func (c *cell) clientScript(sess *apps.Session, key scriptKey) *apps.Script {
	if l := c.clientFree[key]; len(l) > 0 {
		s := l[len(l)-1]
		l[len(l)-1] = nil
		c.clientFree[key] = l[:len(l)-1]
		s.Restart()
		return s
	}
	s := sess.NewClient()
	s.CloseAtEnd = true
	return s
}

// releaseClient returns a settled attempt's script to the freelist. Safe
// because a settled attempt's flow can never receive another packet: client
// ports only move forward, and the wave drained to quiescence before
// settlement was read.
func (c *cell) releaseClient(key scriptKey, s *apps.Script) {
	c.clientFree[key] = append(c.clientFree[key], s)
}

// pullArm picks the arm serving one connection attempt — arm 0, or the
// selector's choice when selection is on — and pins its engine to the
// client's address, so the router delivers it when the SYN+ACK opens the
// flow. Unprotected clients and unrouted cells get no pin (and arm 0, which
// nothing reads). Safe against concurrent wave-mates: each slot address has
// at most one un-opened flow at a time, and opened flows cache their
// engine, so re-pins never switch a strategy mid-connection.
func (c *cell) pullArm(cn *connPlan) int {
	if c.arms == nil || cn.unprotected {
		return 0
	}
	arm := 0
	if c.selCell != nil {
		arm = c.selCell.Next(c.plan.country, cn.protocol, c.selRng)
	}
	c.router.PinClient(clientAddr(c.plan.country, cn.slot, false), c.arms.Engines[arm])
	return arm
}

// runWave drives one wave of the cell to completion: advance the wave gap,
// plant ledger windows into the censor, start every connection of the wave,
// drain and retry until settled, then export the censor's live residual
// windows into the shard's ledger contribution. Waves a cell does not
// participate in are skipped entirely (its clock does not advance — the
// cell's run is over).
func (c *cell) runWave(w int, ledger residualLedger, sh *shardRun) {
	if w >= len(c.byWave) {
		return
	}
	if c.started {
		c.net.Clock.Advance(c.wl.WaveGap)
	}
	c.started = true

	// Apply the censor shift once, at the start of its wave. Purely a
	// constant re-tune (no randomness, no flow state), so it is identical
	// at any worker or shard width.
	if !c.shifted && c.wl.Shift.Enabled() && w >= c.wl.Shift.AtWave &&
		(c.wl.Shift.Country == "" || c.wl.Shift.Country == c.plan.country) {
		c.shifted = true
		if c.shifter != nil {
			_ = c.shifter.ShiftParams(c.wl.Shift.Params) // accepted by validate
		}
	}

	// Seed the country ledger's windows that survive the gap. The expiry
	// reconstruction (now + remaining - gap) makes re-seeding a cell's own
	// exports the exact expiry it already holds, so the max-merge inside
	// SeedResidual turns self-seeding into a no-op: a cell's behaviour is
	// unchanged by its own ledger contribution.
	if c.resid != nil && len(ledger) > 0 {
		now := c.net.Clock.Now()
		for server, remaining := range ledger {
			if remaining <= c.wl.WaveGap {
				continue
			}
			c.resid.SeedResidual(server, now+remaining-c.wl.WaveGap)
			c.res.residualSeeded++
		}
	}

	// A wave with unprotected clients contests its routed connections: the
	// censor state those clients trip can hit them as collateral. plan
	// appends a wave's unprotected clients after its routed ones.
	idxs := c.byWave[w]
	mixed := c.plan.conns[idxs[len(idxs)-1]].unprotected

	// Start every connection of the wave, drain the network, then
	// re-attempt failed connections under the reconnect policy (the zero
	// value retries torn-down attempts immediately within eval.TriesFor,
	// RFC 7766 DNS behaviour, same as eval.Run) until the wave settles.
	pol := c.wl.Reconnect
	start := c.net.Clock.Now()
	live := c.live[:0]
	for _, idx := range idxs {
		cn := &c.plan.conns[idx]
		sess := c.sessions[cn.protocol]
		m := sess.Exchanges()
		app := c.clientScript(sess, scriptKey{proto: cn.protocol, exch: m})
		arm := c.pullArm(cn)
		c.slots[cn.slot].Connect(eval.ServerAddr, sess.Port, app)
		live = append(live, inflight{idx: idx, app: app, connectAt: start, exchanges: m, arm: arm,
			attempts: 1, planned: m})
	}
	for len(live) > 0 {
		c.drain()
		n := 0
		for _, f := range live {
			cn := &c.plan.conns[f.idx]
			app, key := f.app, scriptKey{proto: cn.protocol, exch: f.exchanges}
			if c.selCell != nil && !cn.unprotected {
				// Credit the settled attempt back to the arm that served
				// it — the control plane's per-attempt reward signal.
				switch {
				case app.Succeeded():
					c.selCell.Observe(c.plan.country, cn.protocol, f.arm, selector.Served)
				case app.Established():
					c.selCell.Observe(c.plan.country, cn.protocol, f.arm, selector.TornDown)
				default:
					c.selCell.Observe(c.plan.country, cn.protocol, f.arm, selector.Unestablished)
				}
			}
			f.established = f.established || app.Established()
			f.served += app.Served()
			if app.Established() && app.LastProgressAt() > app.EstablishedAt() {
				// The attempt visibly worked from its SYN until the last
				// verified byte landed.
				f.uptime += app.LastProgressAt() - f.connectAt
			}
			if f.attempts == 1 {
				f.firstSuccess = app.Succeeded()
			}
			budget := eval.TriesFor(cn.protocol)
			if pol.MaxAttempts > 0 {
				budget = pol.MaxAttempts
			}
			if eval.Retry(app, f.attempts, budget, pol.RetryAll) {
				// Reconnect with a session carrying only the exchanges still
				// owed: whole exchanges already served stay served.
				remaining := f.planned - f.served
				if remaining < 1 {
					remaining = 1
				}
				sess := c.sessionFor(cn.protocol, remaining)
				next := c.clientScript(sess, scriptKey{proto: cn.protocol, exch: sess.Exchanges()})
				f.arm = c.pullArm(cn) // a reconnect is a fresh pull
				f.attempts++
				at := c.net.Clock.Now()
				if pol.Backoff > 0 {
					slot, port := c.slots[cn.slot], sess.Port
					at += pol.Backoff
					c.net.After(pol.Backoff, func() {
						slot.Connect(eval.ServerAddr, port, next)
					})
				} else {
					// Inline, exactly where the historical loop connected:
					// the zero-value policy reproduces its event order.
					c.slots[cn.slot].Connect(eval.ServerAddr, sess.Port, next)
				}
				f.app, f.connectAt, f.exchanges = next, at, sess.Exchanges()
				live[n] = f
				n++
			} else {
				c.settle(&f, cn.unprotected, mixed, start)
			}
			c.releaseClient(key, app)
		}
		live = live[:n]
	}
	c.live = live[:0]

	// Every connection of the wave has settled, so no server-side script
	// can see another byte; reclaim the leases for the next wave.
	for i, ps := range c.serverLive {
		c.serverFree[ps.port] = append(c.serverFree[ps.port], ps.s)
		c.serverLive[i] = portedScript{}
	}
	c.serverLive = c.serverLive[:0]

	if c.resid != nil {
		now := c.net.Clock.Now()
		c.resid.ExportResidual(now, func(server netip.AddrPort, remaining time.Duration) {
			if cur, ok := sh.exports[server]; !ok || remaining > cur {
				sh.exports[server] = remaining
			}
			c.res.residualPublished++
		})
	}
}

// settle adds a connection that will not reconnect to the cell's tally. Its
// session succeeded if every planned exchange was served, whether on the
// first attempt or across reconnects; it counts as routed, contested (a
// routed client in a mixed wave) or unprotected.
func (c *cell) settle(f *inflight, unprotected, mixed bool, start time.Duration) {
	cs := &c.res.stats
	success := f.served >= f.planned
	lifetime := c.net.Clock.Now() - start
	if span := time.Duration(f.planned-1) * c.wl.RequestGap; lifetime < span {
		// A give-up-early policy doesn't shrink the denominator: the user
		// wanted service across the whole planned span.
		lifetime = span
	}
	cs.Connections++
	cs.RequestsAttempted += f.planned
	cs.RequestsServed += f.served
	cs.UptimeVirtual += f.uptime
	cs.LifetimeVirtual += lifetime
	if f.firstSuccess {
		cs.FirstAttemptSucceeded++
	}
	if reconnects := f.attempts - 1; reconnects > 0 {
		cs.Reconnects += reconnects
		if success && !f.firstSuccess {
			cs.Recoveries++
			cs.ReconnectsToRecover += reconnects
		}
	}
	switch {
	case success:
		cs.Succeeded++
	case f.established:
		c.res.tornDown++
	default:
		c.res.unestablished++
	}
	kind, kindSucceeded := &cs.Routed, &cs.RoutedSucceeded
	switch {
	case unprotected:
		kind, kindSucceeded = &cs.Unprotected, &cs.UnprotectedSucceeded
	case mixed:
		kind, kindSucceeded = &cs.Contested, &cs.ContestedSucceeded
	}
	*kind++
	if success {
		*kindSucceeded++
	}
}

// finish closes the cell out: stamp the censor's event total into the
// tally, and hand the pooled router, engines and rngs back.
func (c *cell) finish() cellResult {
	if c.cen != nil {
		c.res.stats.CensorEvents = c.cen.CensoredCount()
	}
	c.router.ResetFlows()
	routerPool.Put(c.router)
	eval.ReleasePortfolioEngines(c.arms)
	c.router, c.arms, c.selCell, c.selRng = nil, nil, nil, nil
	for i, r := range c.rngs {
		lazyrand.Put(r)
		c.rngs[i] = nil
	}
	c.rngs = nil
	c.server, c.slots, c.net, c.cen, c.resid = nil, nil, nil, nil, nil
	return c.res
}

// shardRun is one scheduling shard: a contiguous slice of one country's
// cells plus the shard-local state the wave barrier merges — the residual
// windows its cells exported.
type shardRun struct {
	country string
	cells   []*cell
	exports residualLedger
}

// buildShards groups cells into per-country scheduling shards. plan emits
// each country's cells contiguously, so shards are plain sub-slices; Shards
// <= 0 puts every cell in its own shard (maximum parallelism).
func buildShards(wl Workload, cells []*cell) []*shardRun {
	var shards []*shardRun
	for start := 0; start < len(cells); {
		country := cells[start].plan.country
		end := start
		for end < len(cells) && cells[end].plan.country == country {
			end++
		}
		n := end - start
		want := n
		if wl.Shards > 0 && wl.Shards < n {
			want = wl.Shards
		}
		base, extra := n/want, n%want
		at := start
		for s := 0; s < want; s++ {
			size := base
			if s < extra {
				size++
			}
			shards = append(shards, &shardRun{
				country: country,
				cells:   cells[at : at+size],
				exports: residualLedger{},
			})
			at += size
		}
		start = end
	}
	return shards
}

// Run executes the workload and aggregates the fleet result. Cells are
// built, driven wave by wave (shards of one wave run concurrently on a pool
// of up to wl.Workers goroutines, meeting at a residual-merge barrier
// between waves), and finished; each cell's tally is merged in cell order,
// so the Result is identical at any worker or shard width.
func Run(wl Workload) (Result, error) {
	wl = wl.withDefaults()
	if err := wl.validate(); err != nil {
		return Result{}, err
	}
	plans := plan(wl)
	ctl := resolveControl(wl)

	workers := wl.Workers
	if workers <= 0 {
		workers = eval.Workers()
	}

	cells := make([]*cell, len(plans))
	eval.RunParallel(workers, len(plans), func(i int) {
		cells[i] = newCell(wl, plans[i], ctl)
	})
	// The selector's wave barrier drains cells in stable cell-index order
	// (the fold is integer addition, so any order gives the same state —
	// but the stable order keeps it obviously scheduling-independent).
	var selCells []*selector.Cell
	if ctl.state != nil {
		selCells = make([]*selector.Cell, len(cells))
		for i, c := range cells {
			selCells[i] = c.selCell
		}
	}
	shards := buildShards(wl, cells)
	maxWaves := 0
	for _, c := range cells {
		maxWaves = max(maxWaves, len(c.byWave))
	}

	// Wave lockstep: all shards run wave w, then the barrier folds their
	// residual exports into next wave's per-country ledgers. The fold is a
	// max-merge over (key, remaining) pairs — commutative and associative —
	// so neither shard layout nor merge order can change the ledger, and a
	// ledger entry is re-published by any cell still holding the window, so
	// windows survive as many barriers as their 90 s lifetime spans.
	ledgers := map[string]residualLedger{}
	for w := 0; w < maxWaves; w++ {
		eval.RunParallel(workers, len(shards), func(si int) {
			sh := shards[si]
			led := ledgers[sh.country]
			for _, c := range sh.cells {
				c.runWave(w, led, sh)
			}
		})
		next := map[string]residualLedger{}
		for _, sh := range shards {
			if len(sh.exports) == 0 {
				continue
			}
			led := next[sh.country]
			if led == nil {
				led = residualLedger{}
				next[sh.country] = led
			}
			for k, rem := range sh.exports {
				if cur, ok := led[k]; !ok || rem > cur {
					led[k] = rem
				}
			}
			clear(sh.exports)
		}
		ledgers = next
		if ctl.state != nil {
			// Fold the wave's selection outcomes and run the decay +
			// collapse-detection pass, single-threaded like the residual
			// merge above.
			ctl.state.Merge(selCells)
		}
	}

	// Finish the cells and merge their tallies in cell order. The fleet
	// totals are sums over PerCountry, and the fleet counters are published
	// from the finished Result, so every outcome is counted exactly once.
	out := Result{Cells: len(cells), PerCountry: map[string]CountryStats{}}
	var sum cellResult // everything but stats, which merge per country
	var waves, widest int
	for _, c := range cells {
		cr := c.finish()
		cs := out.PerCountry[c.plan.country]
		cs.add(cr.stats)
		out.PerCountry[c.plan.country] = cs
		sum.tornDown += cr.tornDown
		sum.unestablished += cr.unestablished
		sum.residualPublished += cr.residualPublished
		sum.residualSeeded += cr.residualSeeded
		waves += len(c.byWave)
		for _, idxs := range c.byWave {
			widest = max(widest, len(idxs))
		}
	}
	var total CountryStats
	for _, cs := range out.PerCountry {
		total.add(cs)
	}
	out.Connections, out.Succeeded = total.Connections, total.Succeeded
	out.RequestsAttempted, out.RequestsServed = total.RequestsAttempted, total.RequestsServed
	out.UptimeVirtual, out.LifetimeVirtual = total.UptimeVirtual, total.LifetimeVirtual
	out.Outcomes = map[string]int{"served": total.Succeeded, "torn_down": sum.tornDown, "never_established": sum.unestablished}
	publish(out, sum, waves, widest)
	if ctl.state != nil {
		out.Fallbacks = int(ctl.state.Fallbacks())
		for country, cs := range out.PerCountry {
			rep := ctl.state.CountryReport(country)
			var pulls uint64
			for _, r := range rep {
				pulls += r.Pulls
			}
			if pulls == 0 {
				continue // unrouted population: the control plane never ran
			}
			cs.Selection = make(map[string]selector.ArmReport, len(rep))
			for i, r := range rep {
				cs.Selection[ctl.portfolio.Name(i)] = r
			}
			out.PerCountry[country] = cs
		}
	}
	out.Manifest = manifest(wl, len(cells), ctl)
	return out, nil
}

// manifest assembles the run record. Worker and shard width are
// deliberately omitted: they cannot affect the simulation, and their
// absence is what lets two runs at different widths produce byte-identical
// Results.
func manifest(wl Workload, cells int, ctl control) obs.Manifest {
	cfg := map[string]string{
		"countries":            strings.Join(wl.Countries, ","),
		"protocols":            strings.Join(wl.Protocols, ","),
		"connections":          strconv.Itoa(wl.Connections),
		"clients_per_cell":     strconv.Itoa(wl.ClientsPerCell),
		"waves_per_cell":       strconv.Itoa(wl.WavesPerCell),
		"unprotected_per_cell": strconv.Itoa(wl.UnprotectedPerCell),
		"wave_gap":             wl.WaveGap.String(),
		"session_requests":     strconv.Itoa(wl.SessionRequests),
		"request_gap":          wl.RequestGap.String(),
		"reconnect_max":        strconv.Itoa(wl.Reconnect.MaxAttempts),
		"reconnect_backoff":    wl.Reconnect.Backoff.String(),
		"reconnect_retry_all":  strconv.FormatBool(wl.Reconnect.RetryAll),
		"cells":                strconv.Itoa(cells),
		"loss":                 strconv.FormatFloat(wl.Impairments.Loss, 'g', -1, 64),
		"duplicate":            strconv.FormatFloat(wl.Impairments.Duplicate, 'g', -1, 64),
		"reorder":              strconv.FormatFloat(wl.Impairments.Reorder, 'g', -1, 64),
		"jitter":               wl.Impairments.Jitter.String(),
	}
	streams := map[string]int64{
		"server":      seedServer,
		"router":      seedRouter,
		"censor":      seedCensor,
		"impairments": seedImpairments,
		"clients":     seedClients, // client slot s at clients + s
	}
	// Control-plane and censor-shift keys appear ONLY when those features
	// are on: a registry-pinned workload's manifest is byte-identical to
	// builds that predate the control plane.
	if !ctl.portfolio.IsZero() {
		cfg["portfolio"] = ctl.portfolio.Hash()
		cfg["portfolio_size"] = strconv.Itoa(ctl.portfolio.Len())
		streams["portfolio_arms"] = seedArmBase // arm a at seedArmBase + a
	}
	if ctl.state != nil {
		sel := wl.Selection.WithDefaults()
		cfg["selection_policy"] = string(sel.Policy)
		cfg["selection_epsilon"] = strconv.FormatFloat(sel.Epsilon, 'g', -1, 64)
		cfg["selection_ucb_c"] = strconv.FormatFloat(sel.UCBC, 'g', -1, 64)
		cfg["selection_decay"] = strconv.FormatFloat(sel.Decay, 'g', -1, 64)
		cfg["selection_min_pulls"] = strconv.FormatFloat(sel.MinPulls, 'g', -1, 64)
		cfg["selection_collapse_below"] = strconv.FormatFloat(sel.CollapseBelow, 'g', -1, 64)
		cfg["selection_quarantine_waves"] = strconv.Itoa(sel.QuarantineWaves)
		streams["selector"] = seedSelector
	}
	if wl.Shift.Enabled() {
		cfg["shift_wave"] = strconv.Itoa(wl.Shift.AtWave)
		cfg["shift_country"] = wl.Shift.Country
		keys := make([]string, 0, len(wl.Shift.Params))
		for k := range wl.Shift.Params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		for i, k := range keys {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(k)
			b.WriteByte('=')
			b.WriteString(strconv.FormatFloat(wl.Shift.Params[k], 'g', -1, 64))
		}
		cfg["shift_params"] = b.String()
	}
	return obs.NewManifest("fleet", cfg, obs.SeedSchedule{
		Base:      wl.Seed,
		TrialStep: cellSeedStride, // per cell, not per trial
		Streams:   streams,
	})
}
