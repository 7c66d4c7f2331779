package main

import (
	"fmt"
	"math"
	"time"

	"snip"
	"snip/internal/fleet"
	"snip/internal/games"
	"snip/internal/memo"
	"snip/internal/obs"
	"snip/internal/pfi"
	"snip/internal/units"
)

// The serve workload: a fleet plays long sessions against tables trained
// at set-up, for every bundled game — a mix spanning the paper's 17–43%
// useless-event range (Fig. 4). There is no cloud, so the device layers
// do all the work and a cloud-side change should not move it.
type serveSize struct {
	games         []string
	devices       int // per game and pass
	sessionSecs   int
	trainSessions int
	trainSecs     int
}

func serveSizing(tiny bool) serveSize {
	if tiny {
		return serveSize{games: games.Names()[:2], devices: 2, sessionSecs: 5, trainSessions: 1, trainSecs: 5}
	}
	return serveSize{games: games.Names(), devices: 4, sessionSecs: 60, trainSessions: 3, trainSecs: 30}
}

// Seed streams: each purpose draws its session seeds from its own
// stream, so inputs never collide across purposes or workloads.
const (
	streamTrain = iota + 1
	streamServe
	streamRelearn
	streamIngest
)

// sessionSeed derives the seed of a block of sessions from the workload
// seed, a stream and an index. It keeps 40 bits, so adding a device or
// session offset never overflows.
func sessionSeed(seed uint64, stream, idx int) uint64 {
	return mix(seed*0x9E3779B97F4A7C15^uint64(stream)<<48^uint64(idx)) >> 24
}

// trainSeed is the seed of a set-up table's profiling sessions. It does
// not depend on the workload seed: tables come from one fixed profiling
// corpus, like a shipped build, and the workload seed drives every
// session the devices then play. A table trained per seed would let one
// seed's table quality, not the code under test, move the figures.
func trainSeed(idx int) uint64 { return sessionSeed(0, streamTrain, idx) }

func secs(n int) units.Time { return units.Time(time.Duration(n) * time.Second / time.Microsecond) }

// pfiConfig is the profiler's PFI configuration for a game: the default
// tuning plus the game's developer-marked necessary inputs, exactly as
// the cloud profiler assembles it before a rebuild.
func pfiConfig(game string, workers int) (pfi.Config, error) {
	cfg := pfi.DefaultConfig()
	cfg.Workers = workers
	g, err := games.New(game)
	if err != nil {
		return cfg, err
	}
	if ov := g.Overrides(); len(ov) > 0 {
		cfg.ForceInclude = make(map[string]bool, len(ov))
		for _, f := range ov {
			cfg.ForceInclude[f] = true
		}
	}
	return cfg, nil
}

// trainTable profiles a game under full instrumentation and builds its
// flat table: Profile → pfi.Run → BuildSnip → Flatten. It returns the
// time spent in PFI.
func trainTable(game string, seed uint64, sessions, sessionSecs, workers int) (*memo.FlatTable, time.Duration, error) {
	prof, err := snip.Profile(game, snip.ProfileOptions{
		Sessions: sessions, SeedBase: seed | 1,
		Duration: time.Duration(sessionSecs) * time.Second, Workers: workers,
	})
	if err != nil {
		return nil, 0, err
	}
	cfg, err := pfiConfig(game, workers)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	res, err := pfi.Run(prof.Dataset(), cfg)
	if err != nil {
		return nil, 0, err
	}
	pfiTime := time.Since(start)
	t := memo.BuildSnip(prof.Dataset(), res.Selection)
	t.Freeze()
	flat, err := memo.Flatten(t)
	return flat, pfiTime, err
}

// tallyOf reads the simulated outcome of a fleet run.
func tallyOf(res *fleet.Result) tally {
	t := tally{
		sessions: int64(res.Sessions), events: res.Events,
		lookups: res.Lookup.Lookups, hits: res.Lookup.Hits, probes: res.Lookup.Probes,
		savedInstr: res.SavedInstr,
	}
	if res.Energy != nil {
		t.energyUJ, t.savedUJ = res.Energy.TotalUJ, res.Energy.SavedUJ
	}
	return t
}

// energyConserved checks the fleet ledger's identity: the four Fig. 2
// groups sum to the total.
func energyConserved(e *fleet.EnergyReport) bool {
	if e == nil {
		return false
	}
	sum := e.SensorsUJ + e.MemoryUJ + e.CPUUJ + e.IPsUJ
	return math.Abs(sum-e.TotalUJ) <= 1e-9*math.Max(1, math.Abs(e.TotalUJ))
}

func runServe(r *run) error {
	sz := serveSizing(r.opt.tiny)
	type trained struct {
		tables  map[string]*memo.FlatTable
		pfiFrac float64
	}
	tr, err := timeSetup(r, func() (trained, error) {
		start := time.Now()
		out := trained{tables: map[string]*memo.FlatTable{}}
		var pfiTime time.Duration
		for gi, g := range sz.games {
			flat, pt, err := trainTable(g, trainSeed(gi), sz.trainSessions, sz.trainSecs, r.workers)
			if err != nil {
				return out, fmt.Errorf("train %s: %w", g, err)
			}
			out.tables[g] = flat
			pfiTime += pt
		}
		out.pfiFrac = pfiTime.Seconds() / time.Since(start).Seconds()
		return out, nil
	}, nil)
	if err != nil {
		return err
	}
	r.layer["setup.pfi_frac"] = tr.pfiFrac
	for _, g := range sz.games {
		r.mixInputs(tr.tables[g].Fingerprint())
	}

	dur := secs(sz.sessionSecs)
	// playPass runs one pass: every game's fleet once, on its own seeds.
	playPass := func(p, workers int, lat opLatency) map[string]tally {
		out := make(map[string]tally, len(sz.games))
		for gi, g := range sz.games {
			spans := obs.NewSpanBuffer(sz.devices)
			res, err := fleet.Run(fleet.Config{
				Game: g, Devices: sz.devices, SessionsPerDevice: 1, SessionDuration: dur,
				SeedBase: sessionSeed(r.opt.seed, streamServe, p*len(sz.games)+gi),
				Table:    memo.NewShared(tr.tables[g]), Workers: workers,
				Energy: &fleet.EnergyConfig{}, Spans: spans,
			})
			if !r.op(err) {
				continue
			}
			r.check(res.FailedDevices == 0, "serve %s pass %d: %d failed devices", g, p, res.FailedDevices)
			want := r.expect(int64(sz.devices))
			r.check(int64(res.Sessions) == want, "serve %s pass %d: %d sessions, want %d", g, p, res.Sessions, want)
			r.check(energyConserved(res.Energy), "serve %s pass %d: energy groups do not sum to the total", g, p)
			if lat != nil {
				for _, s := range spans.Spans() {
					lat.add(g, float64(s.WallNS)/1e6)
				}
			}
			out[g] = tallyOf(res)
		}
		return out
	}

	// The single-worker run of pass 0 is the reference every later
	// repetition of pass 0 must match; it also warms the process up.
	ref := playPass(0, 1, nil)
	for _, g := range sz.games {
		r.mixInputs(uint64(ref[g].events))
		r.mixOutcome(ref[g].fingerprint())
	}

	w := newWindow(r.opt.seconds)
	var passes []map[string]tally
	lat := opLatency{}
	var total tally
	for w.more() {
		p := len(passes)
		w.begin()
		out := playPass(p, r.workers, lat)
		var pt tally
		for _, g := range sz.games {
			pt.add(out[g])
		}
		w.end(pt.sessions, pt.events)
		total.add(pt)
		passes = append(passes, out)
	}
	w.finish(r)
	for _, g := range sz.games {
		r.check(passes[0][g] == ref[g], "serve %s: %d workers gave %+v, one worker %+v", g, r.workers, passes[0][g], ref[g])
	}
	r.e2e["op_p50_ms"] = lat.p50()
	r.layer["memo.hit_ratio"] = safeDiv(float64(total.hits), float64(total.lookups))
	r.layer["energy.saved_frac"] = safeDiv(total.savedUJ, total.energyUJ+total.savedUJ)
	r.note("serve: %d passes, %d sessions, %d events, hit rate %.4f, energy saved %.4f, session p50 %.2fms (n=%d)",
		len(passes), total.sessions, total.events, r.layer["memo.hit_ratio"], r.layer["energy.saved_frac"],
		r.e2e["op_p50_ms"], len(lat.all()))
	if !r.opt.trace {
		return nil
	}

	// The traced pass replays the measured passes' sessions serially and
	// must reproduce each fleet run's event, lookup and hit counts exactly.
	t := newTracer()
	budget := time.Now().Add(time.Duration(r.opt.seconds / 2 * float64(time.Second)))
	devs := make(map[string]*device, len(sz.games))
	for _, g := range sz.games {
		if devs[g], err = newDevice(g, ""); err != nil {
			return err
		}
	}
	rates := deviceRates()
	var lookupNS []int32
	var traced tally
	for p := 0; p < len(passes) && (p == 0 || time.Now().Before(budget)); p++ {
		for gi, g := range sz.games {
			base := sessionSeed(r.opt.seed, streamServe, p*len(sz.games)+gi)
			var gt tally
			for d := 0; d < sz.devices; d++ {
				st, _ := t.play(devs[g], tr.tables[g], base+uint64(d), dur, rates, false, &lookupNS)
				gt.add(st)
			}
			r.check(gt.counts() == passes[p][g].counts(), "serve %s pass %d: traced %+v, fleet %+v", g, p, gt, passes[p][g])
			traced.add(gt)
		}
	}
	t.stop()
	deviceLayers(r, t, traced, lookupNS)
	t.fill(r, traced.sessions)
	r.notes = append(r.notes, t.summary()...)
	return nil
}

// deviceLayers fills the device-side layer metrics from a traced pass.
func deviceLayers(r *run, t *tracer, traced tally, lookupNS []int32) {
	n := float64(traced.sessions)
	r.layer["workload.generate_ms"] = t.perCallMS("workload.generate")
	r.layer["events.synthesize_ms"] = t.perCallMS("events.synthesize")
	r.layer["events.count"] = safeDiv(float64(traced.events), n)
	r.layer["memo.lookup_ns"] = t.perCallMS("memo.lookup") * 1e6
	lat := make([]float64, len(lookupNS))
	for i, v := range lookupNS {
		lat[i] = float64(v)
	}
	r.layer["memo.lookup_p99_ns"] = quantile(lat, 0.99)
	r.layer["memo.lookups"] = safeDiv(float64(traced.lookups), n)
	r.layer["memo.probes_per_lookup"] = safeDiv(float64(traced.probes), float64(traced.lookups))
	r.layer["memo.hit_ratio"] = safeDiv(float64(traced.hits), float64(traced.lookups))
	r.layer["games.process_us"] = t.perCallMS("games.process") * 1e3
	r.layer["games.process_calls"] = safeDiv(float64(t.calls["games.process"]), n)
}
