package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"time"

	"snip/internal/cloud"
	"snip/internal/fleet"
	"snip/internal/memo"
	"snip/internal/obs"
	"snip/internal/pfi"
	"snip/internal/trace"
)

// The relearn workload: continuous learning (paper Fig. 12) against the
// sharded cloud over loopback HTTP. An episode starts from tables trained
// on a deliberately small profile and runs a fixed number of rounds; in
// each round a small fleet per game plays and uploads its sessions, then
// the benchmark times one refresh: Rebuild → update negotiation → delta
// apply → swap. The profile grows every round, so the rebuild side (PFI,
// table build, flatten, diff, delta apply) dominates.
type relearnSize struct {
	games          []string
	rounds         int
	devices        int
	sessionsPerDev int
	batch          int
	sessionSecs    int
	trainSecs      int
}

func relearnSizing(tiny bool) relearnSize {
	if tiny {
		return relearnSize{games: []string{"Colorphun"}, rounds: 2, devices: 2, sessionsPerDev: 2, batch: 2, sessionSecs: 5, trainSecs: 5}
	}
	return relearnSize{games: []string{"Colorphun", "MemoryGame"}, rounds: 4, devices: 2, sessionsPerDev: 2, batch: 2, sessionSecs: 10, trainSecs: 10}
}

// relearnRound is one round's untraced outcome for one game.
type relearnRound struct {
	played      tally
	fingerprint uint64 // of the table swapped in
}

// relearnSetup is the set-up product: the initial tables and the running
// cloud the first episode uses.
type relearnSetup struct {
	tables  map[string]*memo.FlatTable
	cloud   *loopCloud
	pfiFrac float64
}

func runRelearn(r *run) error {
	sz := relearnSizing(r.opt.tiny)
	st, err := timeSetup(r, func() (relearnSetup, error) {
		start := time.Now()
		out := relearnSetup{tables: map[string]*memo.FlatTable{}}
		var pfiTime time.Duration
		for gi, g := range sz.games {
			flat, pt, err := trainTable(g, trainSeed(100+gi), 1, sz.trainSecs, r.workers)
			if err != nil {
				return out, fmt.Errorf("train %s: %w", g, err)
			}
			out.tables[g] = flat
			pfiTime += pt
		}
		var err error
		if out.cloud, err = startCloud(r.workers); err != nil {
			return out, err
		}
		out.pfiFrac = pfiTime.Seconds() / time.Since(start).Seconds()
		return out, nil
	}, func(s relearnSetup) { s.cloud.close() })
	if err != nil {
		return err
	}
	r.layer["setup.pfi_frac"] = st.pfiFrac
	for _, g := range sz.games {
		r.mixInputs(st.tables[g].Fingerprint())
	}
	dur := secs(sz.sessionSecs)
	roundSeed := func(e, k, gi int) uint64 {
		return sessionSeed(r.opt.seed, streamRelearn, (e*sz.rounds+k)*len(sz.games)+gi)
	}

	var (
		refreshMS                             = opLatency{}
		rebuildMS, updateMS, swapUS, uploadMS []float64
		uploadBytes, otaBytes, profileRecords float64
		refreshes                             int
		total                                 tally
		episode0                              [][]relearnRound
	)
	// episode runs one learning episode on c and returns its outcome per
	// round and game.
	episode := func(e int, c *loopCloud) [][]relearnRound {
		out := make([][]relearnRound, sz.rounds)
		shared := make(map[string]*memo.Shared, len(sz.games))
		have := make(map[string]*memo.FlatTable, len(sz.games))
		version := make(map[string]int, len(sz.games))
		for _, g := range sz.games {
			shared[g] = memo.NewShared(st.tables[g])
		}
		for k := 0; k < sz.rounds; k++ {
			out[k] = make([]relearnRound, len(sz.games))
			for gi, g := range sz.games {
				what := fmt.Sprintf("relearn %s episode %d round %d", g, e, k)
				spans := obs.NewSpanBuffer(4 * sz.devices * sz.sessionsPerDev)
				// One fleet worker: the devices upload in a fixed order, so
				// the profile, and every table built from it, is the same
				// on every run of a seed.
				res, err := fleet.Run(fleet.Config{
					Game: g, Devices: sz.devices, SessionsPerDevice: sz.sessionsPerDev,
					SessionDuration: dur, SeedBase: roundSeed(e, k, gi),
					Table: shared[g], Client: c.client, BatchSize: sz.batch, Workers: 1,
					Energy: &fleet.EnergyConfig{}, Spans: spans,
				})
				if !r.op(err) {
					continue
				}
				r.check(res.FailedDevices == 0, "%s: %d failed devices", what, res.FailedDevices)
				r.check(res.OfferedBatches == res.Batches+res.BatchesShed+res.BatchesDropped,
					"%s: device ledger offered %d != accepted %d + shed %d + dropped %d",
					what, res.OfferedBatches, res.Batches, res.BatchesShed, res.BatchesDropped)
				want := r.expect(int64(sz.devices * sz.sessionsPerDev / sz.batch))
				r.check(int64(res.Batches) == want, "%s: %d batches accepted, want %d", what, res.Batches, want)
				r.check(energyConserved(res.Energy), "%s: energy groups do not sum to the total", what)
				for _, s := range spans.Spans() {
					if s.Name == "upload.batch" {
						uploadMS = append(uploadMS, float64(s.WallNS)/1e6)
					}
				}
				uploadBytes += float64(res.UploadBytes)
				out[k][gi].played = tallyOf(res)

				t0 := time.Now()
				err = c.client.Rebuild(g)
				t1 := time.Now()
				var ur *cloud.UpdateResult
				if err == nil {
					ur, err = c.client.FetchUpdate(g, version[g], have[g])
				}
				t2 := time.Now()
				if !r.op(err) {
					continue
				}
				if !r.check(!ur.NotModified && ur.Update.Version == version[g]+1,
					"%s: refresh did not produce generation %d", what, version[g]+1) {
					continue
				}
				flat, ok := ur.Update.Table.(*memo.FlatTable)
				if !r.check(ok, "%s: refreshed table is not flat", what) {
					continue
				}
				shared[g].Swap(flat)
				t3 := time.Now()
				version[g], have[g] = ur.Update.Version, flat
				out[k][gi].fingerprint = flat.Fingerprint()
				refreshMS.add(fmt.Sprintf("%s/%d", g, k), msOf(t3.Sub(t0)))
				rebuildMS = append(rebuildMS, msOf(t1.Sub(t0)))
				updateMS = append(updateMS, msOf(t2.Sub(t1)))
				swapUS = append(swapUS, float64(t3.Sub(t2).Nanoseconds())/1e3)
				otaBytes += float64(ur.WireBytes)
				profileRecords += float64(ur.Update.ProfileRecords)
				refreshes++
			}
		}
		r.checkLedger(c, fmt.Sprintf("relearn episode %d", e))
		return out
	}

	w := newWindow(r.opt.seconds)
	for e := 0; w.more(); e++ {
		c := st.cloud
		if e > 0 {
			// Each episode learns from scratch on a fresh cloud, so every
			// episode's history grows the same way. The cloud starts and
			// stops outside the timed pass, as the set-up one does.
			if c, err = startCloud(r.workers); err != nil {
				return err
			}
		}
		w.begin()
		out := episode(e, c)
		var pt tally
		for _, round := range out {
			for _, g := range round {
				pt.add(g.played)
			}
		}
		w.end(pt.sessions, pt.events)
		c.close()
		total.add(pt)
		if e == 0 {
			episode0 = out
		}
	}
	w.finish(r)
	r.e2e["op_p50_ms"] = refreshMS.p50()
	r.layer["cloud.refresh_p50_ms"] = median(refreshMS.all())
	r.layer["cloud.rebuild_ms"] = median(rebuildMS)
	r.layer["cloud.update_ms"] = median(updateMS)
	r.layer["memo.swap_us"] = median(swapUS)
	r.layer["cloud.upload_p50_ms"] = median(uploadMS)
	r.layer["cloud.upload_bytes_per_session"] = safeDiv(uploadBytes, float64(total.sessions))
	r.layer["cloud.ota_bytes_per_refresh"] = safeDiv(otaBytes, float64(refreshes))
	r.layer["cloud.profile_records"] = safeDiv(profileRecords, float64(refreshes))
	r.layer["memo.hit_ratio"] = safeDiv(float64(total.hits), float64(total.lookups))
	r.layer["energy.saved_frac"] = safeDiv(total.savedUJ, total.energyUJ+total.savedUJ)
	for _, round := range episode0 {
		for _, g := range round {
			r.mixInputs(uint64(g.played.events))
			r.mixOutcome(g.fingerprint ^ g.played.fingerprint())
		}
	}
	r.note("relearn: %d episodes, %d sessions, %d events, %d refreshes, refresh p50 %.1fms, hit rate %.4f, energy saved %.4f, OTA %.0fB/refresh",
		len(w.passes), total.sessions, total.events, refreshes, r.e2e["op_p50_ms"],
		r.layer["memo.hit_ratio"], r.layer["energy.saved_frac"], r.layer["cloud.ota_bytes_per_refresh"])
	if !r.opt.trace || episode0 == nil {
		return nil
	}
	return relearnTraced(r, sz, st, episode0, roundSeed)
}

// relearnTraced replays episode 0 serially in-process, every layer call
// inside a span: the devices' sessions, the batch encode, decode and
// replay the cloud does on upload, then the profiler's rebuild (pfi.Run →
// BuildSnip → Flatten → DiffFlat) and the device's update (delta chain
// decode and ApplyDeltaChain, or LoadFlatTable for a full image) and swap.
// It must reproduce every round's event, lookup and hit counts and every
// table the cloud shipped, bit for bit.
func relearnTraced(r *run, sz relearnSize, st relearnSetup, want [][]relearnRound, roundSeed func(e, k, gi int) uint64) error {
	t := newTracer()
	rates := deviceRates()
	dur := secs(sz.sessionSecs)
	var lookupNS []int32
	var traced tally
	var batchBytes, gobBytes, batches, replayed float64
	var fieldsIn, fieldsSel, imageBytes, deltaBytes, rebuilds, deltas float64

	for gi, g := range sz.games {
		dev, err := newDevice(g, "")
		if err != nil {
			return err
		}
		cfg, err := pfiConfig(g, 1)
		if err != nil {
			return err
		}
		profile := &trace.Dataset{Game: g}
		table := st.tables[g]     // what the devices serve
		var built *memo.FlatTable // the profiler's latest build
		shared := memo.NewShared(table)
		for k := 0; k < sz.rounds; k++ {
			what := fmt.Sprintf("relearn traced %s round %d", g, k)
			base := roundSeed(0, k, gi)
			round := t.root(base, "relearn/"+g, "relearn.round")
			var played tally
			for d := 0; d < sz.devices; d++ {
				var dt tally
				var pending []trace.SessionEvents
				for s := 0; s < sz.sessionsPerDev; s++ {
					seed := base + uint64(d*sz.sessionsPerDev+s)
					out, log := t.play(dev, table, seed, dur, rates, true, &lookupNS)
					dt.add(out)
					pending = append(pending, trace.SessionEvents{Seed: seed, Log: log})
					if len(pending) < sz.batch {
						continue
					}
					wire, raw, err := t.upload(g, pending, profile)
					if !r.op(err) {
						return err
					}
					batchBytes += float64(wire)
					gobBytes += float64(raw)
					batches++
					replayed += float64(len(pending))
					pending = pending[:0]
				}
				played.add(dt)
			}
			r.check(played.counts() == want[k][gi].played.counts(), "%s: traced %+v, fleet %+v", what, played, want[k][gi].played)
			traced.add(played)

			sp := t.open("pfi.run")
			res, err := pfi.Run(profile, cfg)
			t.close(sp, 1)
			if !r.op(err) {
				return err
			}
			fieldsIn += float64(len(res.Importance))
			for _, fs := range res.Selection {
				fieldsSel += float64(len(fs))
			}
			sp = t.open("memo.build")
			snipTable := memo.BuildSnip(profile, res.Selection)
			snipTable.Freeze()
			t.close(sp, 1)
			sp = t.open("memo.flatten")
			flat, err := memo.Flatten(snipTable)
			t.close(sp, 1)
			if !r.op(err) {
				return err
			}
			rebuilds++
			imageBytes += float64(len(flat.Image()))

			// The profiler ships a delta when the diff against its previous
			// build is smaller than the image; the device then patches the
			// table it serves, and otherwise loads the full image.
			var next *memo.FlatTable
			var chainWire []byte
			if built != nil {
				sp = t.open("memo.diff")
				delta, err := memo.DiffFlat(g, k, k+1, built, flat)
				t.close(sp, 1)
				if err == nil {
					var buf bytes.Buffer
					sp = t.open("trace.delta_encode")
					err = trace.EncodeDeltaChain(&buf, &trace.DeltaChain{Game: g, Deltas: []trace.TableDelta{*delta}})
					t.close(sp, 1)
					if err == nil && buf.Len() < len(flat.Image()) {
						chainWire = buf.Bytes()
					}
				}
			}
			if chainWire != nil {
				sp = t.open("trace.delta_decode")
				chain, err := trace.DecodeDeltaChain(bytes.NewReader(chainWire), trace.DefaultMaxDecodedDelta)
				t.close(sp, 1)
				if !r.op(err) {
					return err
				}
				sp = t.open("memo.apply_delta")
				next, err = memo.ApplyDeltaChain(table, chain)
				t.close(sp, 1)
				if !r.op(err) {
					return err
				}
				deltaBytes += float64(len(chainWire))
				deltas++
			} else {
				img := append([]byte(nil), flat.Image()...)
				sp = t.open("memo.load")
				next, err = memo.LoadFlatTable(img)
				t.close(sp, 1)
				if !r.op(err) {
					return err
				}
			}
			sp = t.open("memo.swap")
			shared.Swap(next)
			t.close(sp, 1)
			r.check(next.Fingerprint() == want[k][gi].fingerprint,
				"%s: traced table %016x, cloud shipped %016x", what, next.Fingerprint(), want[k][gi].fingerprint)
			table, built = next, flat
			t.close(round, 0)
		}
	}
	t.stop()
	deviceLayers(r, t, traced, lookupNS)
	r.layer["trace.encode_ms"] = t.perCallMS("trace.encode")
	r.layer["trace.decode_ms"] = t.perCallMS("trace.decode")
	r.layer["trace.batch_bytes"] = safeDiv(batchBytes, batches)
	r.layer["trace.compress_ratio"] = safeDiv(gobBytes, batchBytes)
	r.layer["cloud.replay_ms"] = t.perCallMS("cloud.replay")
	r.layer["cloud.replay_records"] = safeDiv(float64(t.replayed), replayed)
	r.layer["pfi.run_ms"] = t.perCallMS("pfi.run")
	r.layer["pfi.fields_in"] = safeDiv(fieldsIn, rebuilds)
	r.layer["pfi.fields_selected"] = safeDiv(fieldsSel, rebuilds)
	for _, name := range []string{"build", "flatten", "diff", "apply_delta", "load"} {
		r.layer["memo."+name+"_ms"] = t.perCallMS("memo." + name)
	}
	r.layer["memo.swap_us"] = t.perCallMS("memo.swap") * 1e3
	r.layer["memo.image_bytes"] = safeDiv(imageBytes, rebuilds)
	r.layer["memo.delta_bytes"] = safeDiv(deltaBytes, deltas)
	t.fill(r, traced.sessions)
	r.notes = append(r.notes, t.summary()...)
	return nil
}

// upload is the batch's trip from device to profile: EncodeBatch on the
// device, DecodeBatch and ReplayBatch on the cloud, merged into the
// profile in batch order as the profiler merges it. It returns the wire
// bytes and the batch's uncompressed gob size.
func (t *tracer) upload(game string, sessions []trace.SessionEvents, profile *trace.Dataset) (wire, raw int, err error) {
	batch := &trace.SessionBatch{Game: game, Sessions: sessions}
	var cw countingWriter
	if err := gob.NewEncoder(&cw).Encode(batch); err != nil {
		return 0, 0, err
	}
	var buf bytes.Buffer
	sp := t.open("trace.encode")
	err = trace.EncodeBatch(&buf, batch)
	t.close(sp, 1)
	if err != nil {
		return 0, 0, err
	}
	sp = t.open("trace.decode")
	got, err := trace.DecodeBatch(bytes.NewReader(buf.Bytes()))
	t.close(sp, 1)
	if err != nil {
		return 0, 0, err
	}
	logs := sessionLogs(got.Sessions)
	sp = t.open("cloud.replay")
	dss, err := cloud.ReplayBatch(game, 1, logs)
	t.close(sp, int64(len(logs)))
	if err != nil {
		return 0, 0, err
	}
	for _, ds := range dss {
		profile.Merge(ds)
		t.replayed += int64(ds.Len())
	}
	return buf.Len(), cw.n, nil
}

// countingWriter counts the bytes written through it.
type countingWriter struct{ n int }

func (c *countingWriter) Write(p []byte) (int, error) { c.n += len(p); return len(p), nil }
