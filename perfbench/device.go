package main

import (
	"math"
	"sort"
	"time"

	"snip/internal/energy"
	"snip/internal/events"
	"snip/internal/games"
	"snip/internal/memo"
	"snip/internal/schemes"
	"snip/internal/sensors"
	"snip/internal/soc"
	"snip/internal/trace"
	"snip/internal/units"
	"snip/internal/workload"
)

// device is one game's device-side state for the serial passes: the
// behaviour model that generates sensor input, the game whose handlers
// run, and the event types the game registers for.
type device struct {
	name    string
	gen     workload.Generator
	game    games.Game
	handled map[events.Type]bool
}

func newDevice(game, preset string) (*device, error) {
	gen, err := workload.ForWorkload(game, preset)
	if err != nil {
		return nil, err
	}
	g, err := games.New(game)
	if err != nil {
		return nil, err
	}
	handled := make(map[events.Type]bool)
	for _, t := range g.Types() {
		handled[t] = true
	}
	return &device{name: game, gen: gen, game: g, handled: handled}, nil
}

// synthesize turns a session's sensor stream into its time-ordered
// events, with the per-session frame-counter base and the stable
// (time, sequence) order the fleet's devices use, so a serial pass sees
// exactly the events a fleet device sees for the same seed.
func synthesize(seed uint64, stream *sensors.Stream) []*events.Event {
	cfg := events.DefaultSynthesizerConfig()
	cfg.FrameBase = int64(seed%1_000_000) * 10_000_000
	evs := events.NewSynthesizer(cfg).SynthesizeAll(stream)
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Time != evs[j].Time {
			return evs[i].Time < evs[j].Time
		}
		return evs[i].Seq < evs[j].Seq
	})
	return evs
}

// logEvent is the events-only log entry a device uploads for one event.
func logEvent(e *events.Event) trace.LoggedEvent {
	return trace.LoggedEvent{
		Type: e.Type.String(), Seq: e.Seq, Time: e.Time,
		Values: append([]int64(nil), e.Values...),
	}
}

// record produces the events-only log a device uploads for one session,
// without playing it: the unit of the ingest corpus.
func (d *device) record(seed uint64, dur units.Time) *trace.EventLog {
	log := &trace.EventLog{Game: d.name}
	for _, e := range synthesize(seed, d.gen.Generate(seed, dur)) {
		if d.handled[e.Type] {
			log.Events = append(log.Events, logEvent(e))
		}
	}
	return log
}

// deviceRates are the energy ledger's charge rates at the reference SoC
// speed grade, the rates every benchmark fleet device runs at.
func deviceRates() energy.Rates {
	c := soc.DefaultConfig()
	return energy.NewRates(c.CPUFreqMHz, c.IPC, c.MemBytesPerMicro, nil)
}

// tally is the simulated outcome of sessions: what the fleet's result
// aggregates. Fleet runs of one seed must match it exactly, energy
// included; the traced pass must match its counts.
type tally struct {
	sessions, events      int64
	lookups, hits, probes int64
	savedInstr            int64
	energyUJ, savedUJ     float64
}

func (a *tally) add(b tally) {
	a.sessions += b.sessions
	a.events += b.events
	a.lookups += b.lookups
	a.hits += b.hits
	a.probes += b.probes
	a.savedInstr += b.savedInstr
	a.energyUJ += b.energyUJ
	a.savedUJ += b.savedUJ
}

// counts is the tally without its energy figures: the part the traced
// pass reproduces, since its ledger charges only stand in for the fleet
// ledger's and are timed, not compared.
func (a tally) counts() tally {
	a.energyUJ, a.savedUJ = 0, 0
	return a
}

// fingerprint hashes the tally, floats by their bits.
func (a tally) fingerprint() uint64 {
	h := uint64(0)
	for _, v := range []uint64{
		uint64(a.sessions), uint64(a.events), uint64(a.lookups), uint64(a.hits), uint64(a.probes),
		uint64(a.savedInstr), math.Float64bits(a.energyUJ), math.Float64bits(a.savedUJ),
	} {
		h = mix(h ^ v)
	}
	return h
}

// layerTimes accumulates the per-event calls of one session.
type layerTimes struct {
	lookupNS, processNS, applyNS, energyNS int64
	lookups, processes, applies, charges   int64
}

// play runs one device session serially, inside spans: the fleet
// device's pipeline, workload.Generate → Synthesizer.SynthesizeAll →
// per event FlatTable.Lookup and either Game.ApplyOutputs (hit) or
// Game.Process (miss) → energy.Ledger charges. The charges follow the
// fleet ledger's charge model so that the ledger's share of the time is
// realistic; they are timed, not compared, and the returned tally holds
// counts only. With keepLog it also builds the events-only log the device
// uploads. lookupNS receives every lookup's duration.
func (t *tracer) play(d *device, tab memo.Table, seed uint64, dur units.Time, rates energy.Rates,
	keepLog bool, lookupNS *[]int32) (tally, *trace.EventLog) {
	sess := t.root(seed, d.name, "device.session")
	game := d.game
	game.Reset(seed)

	sp := t.open("workload.generate")
	stream := d.gen.Generate(seed, dur)
	t.close(sp, 1)

	sp = t.open("events.synthesize")
	evs := synthesize(seed, stream)
	t.close(sp, 1)

	var log *trace.EventLog
	if keepLog {
		log = &trace.EventLog{Game: d.name}
	}
	led := energy.NewLedger(rates)
	var out tally
	var lt layerTimes
	dispatch := t.open("device.dispatch")
	for _, e := range evs {
		if !d.handled[e.Type] {
			continue
		}
		out.events++
		if log != nil {
			log.Events = append(log.Events, logEvent(e))
		}
		start := time.Now()
		led.NoteEvent()
		cpu, mem, hub := events.DeliveryCostParts(e)
		led.ChargeInstr(cpu)
		led.ChargeMemBytes(int64(mem))
		led.ChargeBusy(energy.SensorHub, hub)
		led.ChargeBusy(energy.Sensors, hub)
		lt.energyNS += time.Since(start).Nanoseconds()
		lt.charges++
		if tab == nil {
			lt.exec(led, game, e)
			continue
		}
		ev := e
		resolver := func(name string) (uint64, bool) {
			if v, ok := game.PeekField(name); ok {
				return v, true
			}
			return schemes.ResolveEventField(ev, name)
		}
		start = time.Now()
		entry, probes, cmpBytes, hit := tab.Lookup(e.Type.String(), resolver)
		ns := time.Since(start).Nanoseconds()
		lt.lookupNS += ns
		lt.lookups++
		*lookupNS = append(*lookupNS, int32(min(ns, 1<<31-1)))
		out.lookups++
		out.probes += probes
		start = time.Now()
		le := led.ChargeInstr(6*int64(cmpBytes) + 40*probes + 2000)
		le += led.ChargeMemBytes(int64(cmpBytes) + probes*32)
		led.Attribute(energy.CauseLookupOverhead, le)
		lt.energyNS += time.Since(start).Nanoseconds()
		lt.charges++
		if !hit {
			lt.exec(led, game, e)
			continue
		}
		out.hits++
		out.savedInstr += entry.Instr
		start = time.Now()
		led.Attribute(energy.CauseShortCircuitSaved, led.InstrEnergy(entry.Instr))
		lt.energyNS += time.Since(start).Nanoseconds()
		lt.charges++
		start = time.Now()
		game.ApplyOutputs(entry.Outputs)
		lt.applyNS += time.Since(start).Nanoseconds()
		lt.applies++
	}
	t.leaf("memo.lookup", lt.lookupNS, lt.lookups)
	t.leaf("games.process", lt.processNS, lt.processes)
	t.leaf("games.apply", lt.applyNS, lt.applies)
	t.leaf("energy.charge", lt.energyNS, lt.charges)
	t.close(dispatch, 0)
	t.close(sess, 1)

	out.sessions = 1
	return out, log
}

// exec runs the handler for an event the table did not short-circuit and
// charges its work, tagging work that changed no state as wasted.
func (lt *layerTimes) exec(led *energy.Ledger, game games.Game, e *events.Event) {
	start := time.Now()
	x := game.Process(e)
	lt.processNS += time.Since(start).Nanoseconds()
	lt.processes++
	start = time.Now()
	var instr int64
	var mem units.Size
	for _, f := range x.CPUFuncs {
		instr += f.Instr
		mem += f.MemBytes
	}
	en := led.ChargeInstr(instr)
	for _, c := range x.IPCalls {
		en += led.ChargeBusy(c.IP, c.Duration)
		mem += c.MemBytes
	}
	en += led.ChargeMemBytes(int64(mem))
	if !x.Record.StateChanged {
		led.Attribute(energy.CauseWastedRedundant, en)
	}
	lt.energyNS += time.Since(start).Nanoseconds()
	lt.charges++
}
