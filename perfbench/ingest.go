package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"snip/internal/cloud"
	"snip/internal/trace"
)

// The ingest workload: multi-game corpora of recorded sessions, made at
// set-up from the seed, are uploaded in batches to the sharded cloud by a
// closed loop of uploaders, one corpus per pass in turn. Part of each
// corpus uses the eventcam preset and sessions differ in length, so
// session sizes span more than 10×. There is no rebuild and no table
// fetch: this is the write path alone — batch codec, admission, shard
// queue and replay — so work moved from rebuild into ingest shows here
// even when relearn looks unchanged.
type ingestSize struct {
	games    []string
	sessions []corpusSession // per game and corpus
	batch    int
	corpora  int
}

// corpusSession is one session shape in a corpus.
type corpusSession struct {
	preset string
	secs   int
}

func ingestSizing(tiny bool) ingestSize {
	if tiny {
		return ingestSize{games: []string{"RaceKings"}, sessions: []corpusSession{{"", 3}, {"eventcam", 3}}, batch: 2, corpora: 1}
	}
	return ingestSize{
		games:    []string{"Colorphun", "CandyCrush", "ABEvolution", "RaceKings"},
		sessions: []corpusSession{{"", 10}, {"", 60}, {"eventcam", 10}, {"eventcam", 20}},
		batch:    2,
		corpora:  3,
	}
}

// corpusBatch is one upload: a batch of one game's recorded sessions.
type corpusBatch struct {
	game     string
	sessions []trace.SessionEvents
}

// corpus is one pass's uploads and the per-game record counts a correct
// cloud holds after ingesting them, from replaying them locally.
type corpus struct {
	batches          []corpusBatch
	want             map[string]int
	sessions, events int64
}

// ingestSetup is the set-up product: the corpora and the running cloud
// the first pass uses.
type ingestSetup struct {
	corpora []corpus
	cloud   *loopCloud
}

func recordCorpus(r *run, sz ingestSize, c int) (corpus, error) {
	out := corpus{want: map[string]int{}}
	for gi, g := range sz.games {
		var pending []trace.SessionEvents
		for si, cs := range sz.sessions {
			dev, err := newDevice(g, cs.preset)
			if err != nil {
				return out, err
			}
			seed := sessionSeed(r.opt.seed, streamIngest, (c*len(sz.games)+gi)*len(sz.sessions)+si)
			log := dev.record(seed, secs(cs.secs))
			pending = append(pending, trace.SessionEvents{Seed: seed, Log: log})
			out.sessions++
			out.events += int64(len(log.Events))
			if len(pending) == sz.batch || si == len(sz.sessions)-1 {
				out.batches = append(out.batches, corpusBatch{game: g, sessions: pending})
				pending = nil
			}
		}
	}
	for _, b := range out.batches {
		dss, err := cloud.ReplayBatch(b.game, r.workers, sessionLogs(b.sessions))
		if err != nil {
			return out, fmt.Errorf("replay corpus: %w", err)
		}
		for _, ds := range dss {
			out.want[b.game] += ds.Len()
		}
	}
	return out, nil
}

func sessionLogs(ss []trace.SessionEvents) []cloud.SessionLog {
	logs := make([]cloud.SessionLog, len(ss))
	for i, s := range ss {
		logs[i] = cloud.SessionLog{Seed: s.Seed, Log: s.Log}
	}
	return logs
}

// ingestTotals accumulates the untraced passes' outcome.
type ingestTotals struct {
	mu        sync.Mutex
	uploadMS  opLatency
	wireBytes float64
	sessions  int64
	rates     []float64 // sessions accepted per second, per pass
	occupancy []float64 // shard queue occupancy samples
	serverNS  int64
	serverN   int64
	shedRatio float64
}

func runIngest(r *run) error {
	sz := ingestSizing(r.opt.tiny)
	st, err := timeSetup(r, func() (ingestSetup, error) {
		var out ingestSetup
		for c := 0; c < sz.corpora; c++ {
			cp, err := recordCorpus(r, sz, c)
			if err != nil {
				return out, err
			}
			out.corpora = append(out.corpora, cp)
		}
		var err error
		out.cloud, err = startCloud(r.workers)
		return out, err
	}, func(s ingestSetup) { s.cloud.close() })
	if err != nil {
		return err
	}
	minEv, maxEv := int64(math.MaxInt64), int64(0)
	for _, cp := range st.corpora {
		for _, g := range sz.games {
			r.mixOutcome(uint64(cp.want[g]))
		}
		for _, b := range cp.batches {
			for _, s := range b.sessions {
				n := int64(len(s.Log.Events))
				r.mixInputs(uint64(n) ^ s.Seed)
				minEv, maxEv = min(minEv, n), max(maxEv, n)
			}
		}
	}

	tot := &ingestTotals{uploadMS: opLatency{}}
	w := newWindow(r.opt.seconds)
	for p := 0; w.more(); p++ {
		c := st.cloud
		if p > 0 {
			// A fresh cloud per pass keeps the profile, and the heap, the
			// size of one corpus.
			if c, err = startCloud(r.workers); err != nil {
				return err
			}
		}
		ci := p % len(st.corpora)
		cp := st.corpora[ci]
		w.begin()
		wall := ingestPass(r, c, cp, ci, tot)
		w.end(cp.sessions, cp.events)
		tot.rates = append(tot.rates, float64(cp.sessions)/wall.Seconds())
		tot.sessions += cp.sessions
		for g, n := range cp.want {
			got, err := c.records(g)
			if want := r.expect(int64(n)); r.op(err) {
				r.check(int64(got) == want, "ingest %s pass %d: cloud holds %d records, want %d", g, p, got, want)
			}
		}
		r.checkLedger(c, fmt.Sprintf("ingest pass %d", p))
		if v, err := c.overloadz(); r.op(err) {
			tot.shedRatio = max(tot.shedRatio, v.ShedRatio)
		}
		if sum, n, err := c.serverTime("upload-batch"); r.op(err) {
			tot.serverNS += sum
			tot.serverN += n
		}
		c.close()
	}
	w.finish(r)

	uploads := tot.uploadMS.all()
	r.e2e["op_p50_ms"] = tot.uploadMS.p50()
	r.layer["cloud.upload_p50_ms"] = median(uploads)
	if len(uploads) >= 100 {
		r.layer["cloud.upload_p90_ms"] = quantile(uploads, 0.9)
	}
	r.layer["cloud.ingest_sessions_per_s"] = median(tot.rates)
	r.layer["cloud.upload_bytes_per_session"] = safeDiv(tot.wireBytes, float64(tot.sessions))
	serverMS := safeDiv(float64(tot.serverNS)/1e6, float64(tot.serverN))
	r.layer["cloud.upload_server_ms"] = serverMS
	r.layer["cloud.http_overhead_ms"] = mean(uploads) - serverMS
	r.layer["cloud.queue_occupancy"] = mean(tot.occupancy)
	r.layer["cloud.shed_frac"] = tot.shedRatio
	r.note("ingest: %d passes, %d sessions (%d-%d events each), %d uploads, upload p50 %.2fms p90 %.2fms, %.1f sessions/s",
		len(w.passes), tot.sessions, minEv, maxEv, len(uploads), median(uploads), quantile(uploads, 0.9),
		r.layer["cloud.ingest_sessions_per_s"])
	if !r.opt.trace {
		return nil
	}
	return ingestTraced(r, st)
}

// ingestPass uploads one corpus through r.workers closed-loop uploaders
// while sampling the shard queues' occupancy, and returns the pass's
// wall time.
func ingestPass(r *run, c *loopCloud, cp corpus, ci int, tot *ingestTotals) time.Duration {
	start := time.Now()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				v := c.svc.Overloadz().Occupancy
				tot.mu.Lock()
				tot.occupancy = append(tot.occupancy, v)
				tot.mu.Unlock()
			}
		}
	}()
	jobs := make(chan int)
	var uploaders sync.WaitGroup
	var errs []error
	for u := 0; u < r.workers; u++ {
		uploaders.Add(1)
		go func() {
			defer uploaders.Done()
			for bi := range jobs {
				b := cp.batches[bi]
				t0 := time.Now()
				wire, err := c.client.UploadBatch(b.game, b.sessions)
				ms := msOf(time.Since(t0))
				tot.mu.Lock()
				if err != nil {
					errs = append(errs, fmt.Errorf("upload %s: %w", b.game, err))
				} else {
					tot.uploadMS.add(fmt.Sprintf("%d/%d", ci, bi), ms)
					tot.wireBytes += float64(wire)
				}
				tot.mu.Unlock()
			}
		}()
	}
	for bi := range cp.batches {
		jobs <- bi
	}
	close(jobs)
	uploaders.Wait()
	wall := time.Since(start)
	close(stop)
	wg.Wait()
	r.attempted += int64(len(cp.batches) - len(errs))
	for _, err := range errs {
		r.op(err)
	}
	return wall
}

// ingestTraced ingests every corpus once, serially, each batch inside
// spans: EncodeBatch → DecodeBatch → ReplayBatch. It must reproduce the
// record counts the cloud reached.
func ingestTraced(r *run, st ingestSetup) error {
	t := newTracer()
	var batchBytes, gobBytes, batches float64
	var sessions int64
	got := make([]map[string]int, len(st.corpora))
	for ci, cp := range st.corpora {
		got[ci] = map[string]int{}
		for bi, b := range cp.batches {
			root := t.root(uint64(ci<<16|bi), "ingest", "ingest.batch")
			profile := &trace.Dataset{Game: b.game}
			wire, raw, err := t.upload(b.game, b.sessions, profile)
			t.close(root, 0)
			if !r.op(err) {
				return err
			}
			batchBytes += float64(wire)
			gobBytes += float64(raw)
			batches++
			got[ci][b.game] += profile.Len()
		}
		sessions += cp.sessions
	}
	t.stop()
	for ci, cp := range st.corpora {
		for g, want := range cp.want {
			r.check(got[ci][g] == want, "ingest traced corpus %d %s: %d records, cloud %d", ci, g, got[ci][g], want)
		}
	}
	r.layer["trace.encode_ms"] = t.perCallMS("trace.encode")
	r.layer["trace.decode_ms"] = t.perCallMS("trace.decode")
	r.layer["trace.batch_bytes"] = safeDiv(batchBytes, batches)
	r.layer["trace.compress_ratio"] = safeDiv(gobBytes, batchBytes)
	r.layer["cloud.replay_ms"] = t.perCallMS("cloud.replay")
	r.layer["cloud.replay_records"] = safeDiv(float64(t.replayed), float64(sessions))
	// Replay runs one game handler per record.
	r.layer["games.process_calls"] = r.layer["cloud.replay_records"]
	t.fill(r, sessions)
	r.notes = append(r.notes, t.summary()...)
	return nil
}
