package eval

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"geneva/internal/apps"
	"geneva/internal/censor/gfw"
	"geneva/internal/core"
	"geneva/internal/netsim"
	"geneva/internal/packet"
	"geneva/internal/strategies"
	"geneva/internal/tcpstack"
)

// tryLoop states the trial's try loop independently of Retry: up to tries
// attempts, stopping at the first success or at the first failure that was
// not a teardown. It returns the attempts made, whether one succeeded, and
// whether any established.
func tryLoop(tries int, attempt func() *apps.Script) (attempts int, success, established bool) {
	for i := 0; i < max(tries, 1); i++ {
		app := attempt()
		attempts++
		established = established || app.Established()
		if app.Succeeded() {
			return attempts, true, established
		}
		if !app.Reset() {
			break
		}
	}
	return attempts, false, established
}

// tally adds one trial's outcome to r.
func tally(r *RateResult, attempts int, success, established bool, censorEvents int) {
	r.Trials++
	r.Attempts += attempts
	r.CensorEvents += censorEvents
	if success {
		r.Succeeded++
	}
	if established {
		r.Established++
	}
	if censorEvents > 0 {
		r.Censored++
	}
}

// TestFoldMatchesSerialReference: the one trial fold, at any worker width
// and seed stride, with a client hook and a seeded rig edit, counts exactly
// what a serial loop of single trials counts.
func TestFoldMatchesSerialReference(t *testing.T) {
	cfg := TrialConfig(CountryChina, "dns", nil, 4200)
	cfg.ClientAddress = routerClientAddr(CountryChina)
	cfg.ClientHook = matchRstSeqHook
	edit := func(r *Rig, seed int64) {
		r.Server.Outbound = NewDeploymentRouter(seed).Outbound
		if seed%2 == 0 { // a censor that depends on the seed, so a wrong one shows
			for _, b := range r.Censor.(*gfw.GFW).Boxes {
				b.P.PMiss = 1
			}
		}
	}
	const trials = 16
	var seen RateResult
	for _, stride := range []int64{1, 31, trialStride} {
		var want RateResult
		for i := 0; i < trials; i++ {
			c := cfg
			c.Seed = cfg.Seed + int64(i)*stride
			rig := NewRig(c)
			edit(rig, c.Seed)
			attempts, success, established := tryLoop(c.Tries, rig.Attempt)
			tally(&want, attempts, success, established, rig.CensorEvents())
		}
		for _, w := range []int{1, 2, 8} {
			c := cfg
			c.Workers = w
			if got := rateStats(c, trials, stride, edit); got != want {
				t.Errorf("stride %d, workers %d: fold %+v, serial %+v", stride, w, got, want)
			}
		}
		seen.Succeeded += want.Succeeded
		seen.Censored += want.Censored
		seen.Attempts += want.Attempts - want.Trials
	}
	if seen.Succeeded == 0 || seen.Censored == 0 || seen.Attempts == 0 {
		t.Errorf("degenerate reference (successes, censored trials, retries): %+v", seen)
	}
}

// fingerprint returns a client hook that folds the sequence and
// acknowledgement numbers and source port of every packet the client sends
// into a fresh entry of *prints — evidence of the client's and the
// server's rng streams, which a trial's outcome alone may not show.
func fingerprint(prints *[]uint64) func(*tcpstack.Endpoint) {
	return func(ep *tcpstack.Endpoint) {
		*prints = append(*prints, 0)
		k := len(*prints) - 1
		ep.Outbound = func(p *packet.Packet) []*packet.Packet {
			(*prints)[k] = (*prints)[k]*31 + uint64(p.TCP.Seq)<<32 ^ uint64(p.TCP.Ack) ^ uint64(p.TCP.SrcPort)
			return []*packet.Packet{p}
		}
	}
}

// TestSeedScheduleDescribesRig: the manifest's seed schedule is a complete
// recipe. Rebuilding trial i by hand from SeedSchedule(base) alone — seed
// Base + i*TrialStep, each rng stream at its recorded offset — gives the
// outcome RateStats reports and the same client packets, on a retrying
// protocol and on an impaired path with a strategy engine, so every
// recorded stream is exercised.
func TestSeedScheduleDescribesRig(t *testing.T) {
	impaired := TrialConfig(CountryChina, "http", strategies.Strategy1.Parse(), 77)
	impaired.Impairments = netsim.Profile{Loss: 0.05, Reorder: 0.02, Jitter: time.Millisecond}
	for _, cfg := range []Config{TrialConfig(CountryChina, "dns", strategies.Strategy4.Parse(), 5), impaired} {
		sch := SeedSchedule(cfg.Seed)
		if len(sch.Streams) != 5 {
			t.Fatalf("schedule records %d streams, the rig draws from 5: %+v", len(sch.Streams), sch)
		}
		stream := func(seed int64, name string) *rand.Rand {
			off, ok := sch.Streams[name]
			if !ok {
				t.Fatalf("schedule has no %q stream", name)
			}
			return rand.New(rand.NewSource(seed + off))
		}
		const trials = 12
		var want RateResult
		var wantPrints, gotPrints []uint64
		for i := int64(0); i < trials; i++ {
			seed := sch.Base + i*sch.TrialStep
			client := tcpstack.NewEndpoint(ClientAddr, tcpstack.DefaultClient, stream(seed, "client"))
			server := tcpstack.NewEndpoint(ServerAddr, tcpstack.DefaultServer, stream(seed, "server"))
			server.NewServerApp = cfg.Session.ServerFactory()
			server.Listen(cfg.Session.Port)
			server.Outbound = core.NewEngine(cfg.Strategy, stream(seed, "engine")).Outbound
			cen := NewCensor(cfg.Country, stream(seed, "censor"))
			n := netsim.New(client, server, cen)
			if cfg.Impairments.Enabled() {
				n.SetImpairments(cfg.Impairments, stream(seed, "impairments"))
				client.Retransmit = true
				server.Retransmit = true
			}
			client.Attach(n)
			server.Attach(n)
			fingerprint(&wantPrints)(client)
			attempts, success, established := tryLoop(cfg.Tries, func() *apps.Script {
				app := cfg.Session.NewClient()
				client.Connect(ServerAddr, cfg.Session.Port, app)
				n.Run(0)
				return app
			})
			tally(&want, attempts, success, established, cen.CensoredCount())
		}
		cfg.ClientHook = fingerprint(&gotPrints)
		cfg.Workers = 1 // the hook appends one fingerprint per trial, in order
		if got := RateStats(cfg, trials); got != want {
			t.Errorf("%s: RateStats %+v, rig rebuilt from the manifest schedule %+v", cfg.Session.Protocol, got, want)
		}
		if !slices.Equal(gotPrints, wantPrints) {
			t.Errorf("%s: client packets differ from the rebuilt rig's", cfg.Session.Protocol)
		}
		if want.Succeeded == 0 || want.Succeeded == want.Trials {
			t.Errorf("%s: degenerate outcome %+v", cfg.Session.Protocol, want)
		}
	}
}
