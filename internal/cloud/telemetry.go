package cloud

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"

	"snip/internal/obs"
	"snip/internal/trace"
	"snip/internal/units"
)

// Fleet telemetry aggregation: the cloud half of the device→cloud
// telemetry pipeline. Devices fold per-generation tallies into
// trace.TelemetryRecords and POST them here as SNIPTEL1 batches; the
// aggregator keeps bounded per-game/per-generation windowed rollups
// (obs.Window over the devices' *simulated* clock) and derives the two
// fleet signals the scaling roadmap reads:
//
//   - Drift: the effective-hit-rate delta between the live table
//     generation and its predecessor. "Effective" folds the guard's
//     windowed mispredict ratio into the raw windowed hit rate
//     (hit/lookups · (1 − mispredicts/checks)) — a poisoned table
//     whose keys still match serves the same raw hit rate but wrong
//     outputs, so raw hit rate alone cannot see the regression the
//     rebuild-on-drift policy must catch.
//   - Ingest pressure: windowed occupancy of the devices' upload and
//     telemetry queues — the admission-control input.
//
// Both surface as per-game gauges on /v1/metrics and, with the full
// rollups, as JSON on GET /v1/fleetz.

// Telemetry ingest bounds. Records are tiny, so the caps sit far below
// the session-batch ones; the aggregator itself is bounded too, so a
// hostile fleet cannot grow cloud memory without bound.
const (
	// MaxTelemetryBytes bounds a telemetry batch's compressed body.
	MaxTelemetryBytes = 1 << 20
	// MaxTelemetryDecodedBytes bounds its decompressed size.
	MaxTelemetryDecodedBytes = 4 << 20
	// maxTelemetryGames caps how many games the aggregator tracks;
	// batches for games beyond the cap are dropped (and counted).
	maxTelemetryGames = 64
	// maxTelemetryGenerations caps retained generation rollups per game;
	// the lowest generation is evicted when a newer one appears.
	maxTelemetryGenerations = 8
	// maxTelemetryDevices caps the per-generation distinct-device set.
	maxTelemetryDevices = 4096
	// telemetryBucketWidthUS / telemetryBuckets shape the windows: 64
	// five-second buckets of simulated time.
	telemetryBucketWidthUS = 5_000_000
	telemetryBuckets       = 64
)

// Verdict thresholds for the /v1/fleetz summary fields.
const (
	// driftThreshold is the effective-hit-rate delta beyond which a game
	// is judged drifting (live generation worse) or recovered (live
	// generation better, i.e. a rollback landed).
	driftThreshold = 0.10
	// pressureThreshold is the windowed queue occupancy beyond which
	// ingest is judged overloaded.
	pressureThreshold = 0.80
)

// genRollup accumulates one game's telemetry for one table generation.
type genRollup struct {
	generation int64
	records    int64
	sessions   int64
	events     int64
	lookups    int64
	hits       int64
	shadow     int64
	mispredict int64
	savedInstr int64
	maxP99NS   int64
	devices    map[int]struct{}
	// Energy ledger rollup, all zero when the fleet ran without the
	// device-side ledger. energyUJ always equals the sum of groupUJ
	// (devices fold conservatively); savedUJ is the short-circuit credit
	// and never part of energyUJ.
	energyUJ  float64
	groupUJ   [4]float64 // Fig. 2 order: Sensors, Memory, CPU, IPs
	lookupUJ  float64
	shadowUJ  float64
	savedUJ   float64
	wastedUJ  float64
	elapsedUS int64
	// hitWindow folds (hits, lookups) pairs; shadowWindow folds
	// (mispredicts, checks); energyWindow folds (net µJ, events) where
	// net = spent − credited — the regression signal's unit. All keyed by
	// the records' simulated time.
	hitWindow    *obs.Window
	shadowWindow *obs.Window
	energyWindow *obs.Window
}

func newGenRollup(gen int64) *genRollup {
	return &genRollup{
		generation:   gen,
		devices:      make(map[int]struct{}),
		hitWindow:    obs.NewWindow(telemetryBucketWidthUS, telemetryBuckets),
		shadowWindow: obs.NewWindow(telemetryBucketWidthUS, telemetryBuckets),
		energyWindow: obs.NewWindow(telemetryBucketWidthUS, telemetryBuckets),
	}
}

// effectiveHitRate is the windowed hit rate discounted by the windowed
// mispredict ratio — the drift signal's unit.
func (g *genRollup) effectiveHitRate() float64 {
	return g.hitWindow.Rate() * (1 - g.shadowWindow.Rate())
}

// gameTelemetry is one game's rollups plus live/predecessor tracking.
type gameTelemetry struct {
	gens map[int64]*genRollup
	// liveGen is the generation whose records carry the most recent
	// simulated time; prevGen the distinct generation that was live
	// before it (0 when unknown). A rollback moves liveGen *back* to the
	// restored generation once its post-rollback records arrive.
	liveGen, prevGen int64
	liveSimTimeUS    int64
	// pressureWindow folds (queued, capacity) occupancy pairs.
	pressureWindow *obs.Window
	// lastDevUJ remembers each device's last cumulative ledger total —
	// the conservation check: a device's DeviceTotalUJ may only grow, so
	// a decrease means lost or reordered energy accounting. Bounded like
	// the per-generation device sets; violations counts the breaks.
	lastDevUJ          map[int]float64
	monotoneViolations int64
}

// telemetryAggregator is the bounded cloud-side store. One mutex is
// plenty: ingest folds a handful of integers per record, and the
// windows themselves are lock-free.
type telemetryAggregator struct {
	mu      sync.Mutex
	games   map[string]*gameTelemetry
	batches int64
	records int64
}

func newTelemetryAggregator() *telemetryAggregator {
	return &telemetryAggregator{games: make(map[string]*gameTelemetry)}
}

// ingest folds one decoded batch. Returns false when the game cap
// rejects it.
func (a *telemetryAggregator) ingest(game string, recs []trace.TelemetryRecord) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	gt, ok := a.games[game]
	if !ok {
		if len(a.games) >= maxTelemetryGames {
			return false
		}
		gt = &gameTelemetry{
			gens:           make(map[int64]*genRollup),
			pressureWindow: obs.NewWindow(telemetryBucketWidthUS, telemetryBuckets),
			lastDevUJ:      make(map[int]float64),
		}
		a.games[game] = gt
	}
	a.batches++
	for i := range recs {
		rec := &recs[i]
		g, ok := gt.gens[rec.Generation]
		if !ok {
			g = newGenRollup(rec.Generation)
			gt.gens[rec.Generation] = g
			for len(gt.gens) > maxTelemetryGenerations {
				lowest := int64(-1)
				for gen := range gt.gens {
					if lowest < 0 || gen < lowest {
						lowest = gen
					}
				}
				delete(gt.gens, lowest)
			}
		}
		a.records++
		g.records++
		g.sessions += rec.Sessions
		g.events += rec.Events
		g.lookups += rec.Lookups
		g.hits += rec.Hits
		g.shadow += rec.ShadowChecks
		g.mispredict += rec.Mispredicts
		g.savedInstr += rec.SavedInstr
		g.energyUJ += rec.EnergyUJ
		g.groupUJ[0] += rec.SensorsUJ
		g.groupUJ[1] += rec.MemoryUJ
		g.groupUJ[2] += rec.CPUUJ
		g.groupUJ[3] += rec.IPsUJ
		g.lookupUJ += rec.LookupOverheadUJ
		g.shadowUJ += rec.ShadowVerifyUJ
		g.savedUJ += rec.SavedUJ
		g.wastedUJ += rec.WastedUJ
		g.elapsedUS += rec.ElapsedUS
		if rec.EnergyUJ != 0 || rec.SavedUJ != 0 {
			// Net spend: the short-circuit credit is subtracted so a
			// generation whose hits stop earning credits (poisoned keys
			// still match, mispredicts forfeit the credit) reads as more
			// expensive even when its raw spend is unchanged.
			g.energyWindow.Add(rec.SimTimeUS,
				int64(math.Round(rec.EnergyUJ-rec.SavedUJ)), rec.Events)
		}
		if rec.DeviceTotalUJ > 0 {
			if last, ok := gt.lastDevUJ[rec.Device]; ok {
				if rec.DeviceTotalUJ < last {
					gt.monotoneViolations++
				} else {
					gt.lastDevUJ[rec.Device] = rec.DeviceTotalUJ
				}
			} else if len(gt.lastDevUJ) < maxTelemetryDevices {
				gt.lastDevUJ[rec.Device] = rec.DeviceTotalUJ
			}
		}
		if rec.P99LookupNS > g.maxP99NS {
			g.maxP99NS = rec.P99LookupNS
		}
		if len(g.devices) < maxTelemetryDevices {
			g.devices[rec.Device] = struct{}{}
		}
		g.hitWindow.Add(rec.SimTimeUS, rec.Hits, rec.Lookups)
		g.shadowWindow.Add(rec.SimTimeUS, rec.Mispredicts, rec.ShadowChecks)
		gt.pressureWindow.Add(rec.SimTimeUS,
			rec.QueueDepth+rec.TelemetryPending, rec.QueueCap+rec.TelemetryCap)
		// Live-generation tracking: the generation carrying the most
		// recent simulated time is live; a strictly newer timestamp on a
		// different generation displaces it (a swap — or a rollback, once
		// the restored generation's records arrive). Ties keep the
		// incumbent, so interleaved flushes around a swap don't flap.
		if rec.Generation != gt.liveGen && rec.SimTimeUS > gt.liveSimTimeUS {
			gt.prevGen = gt.liveGen
			gt.liveGen = rec.Generation
		}
		if rec.SimTimeUS > gt.liveSimTimeUS {
			gt.liveSimTimeUS = rec.SimTimeUS
		}
	}
	return true
}

// drift returns the live-vs-predecessor effective-hit-rate delta for
// one game (positive = the live generation is worse — regression) and
// whether both sides had window data to judge.
func (gt *gameTelemetry) drift() (float64, bool) {
	live, okL := gt.gens[gt.liveGen]
	prev, okP := gt.gens[gt.prevGen]
	if !okL || !okP || gt.liveGen == gt.prevGen {
		return 0, false
	}
	if _, lc := live.hitWindow.Totals(); lc == 0 {
		return 0, false
	}
	if _, pc := prev.hitWindow.Totals(); pc == 0 {
		return 0, false
	}
	return prev.effectiveHitRate() - live.effectiveHitRate(), true
}

// FleetzGeneration is one generation's rollup in the /v1/fleetz reply.
type FleetzGeneration struct {
	Generation int64 `json:"generation"`
	Records    int64 `json:"records"`
	Sessions   int64 `json:"sessions"`
	Events     int64 `json:"events"`
	Lookups    int64 `json:"lookups"`
	Hits       int64 `json:"hits"`
	Shadow     int64 `json:"shadow_checks"`
	Mispredict int64 `json:"mispredicts"`
	SavedInstr int64 `json:"saved_instr"`
	Devices    int   `json:"devices"`
	MaxP99NS   int64 `json:"max_p99_lookup_ns"`
	// HitRate is cumulative hits/lookups; the windowed fields are over
	// the retained window only, and EffectiveHitRate discounts the
	// windowed mispredict ratio.
	HitRate            float64 `json:"hit_rate"`
	WindowedHitRate    float64 `json:"windowed_hit_rate"`
	WindowedMispredict float64 `json:"windowed_mispredict_ratio"`
	EffectiveHitRate   float64 `json:"effective_hit_rate"`
	// HitHistory is the per-bucket (hits, lookups) time series, oldest
	// first — what snipstat renders as a sparkline.
	HitHistory []obs.WindowBucket `json:"hit_history,omitempty"`
}

// FleetzGame is one game's fleet view in the /v1/fleetz reply.
type FleetzGame struct {
	Game           string  `json:"game"`
	LiveGeneration int64   `json:"live_generation"`
	PrevGeneration int64   `json:"prev_generation"`
	Drift          float64 `json:"drift"`
	// DriftVerdict is "steady", "drifting" (live generation's effective
	// hit rate trails its predecessor by more than the threshold) or
	// "recovered" (live leads by more than the threshold — a rollback or
	// healthy rebuild landed).
	DriftVerdict string  `json:"drift_verdict"`
	Pressure     float64 `json:"pressure"`
	// PressureVerdict is "ok" or "overloaded".
	PressureVerdict string             `json:"pressure_verdict"`
	Generations     []FleetzGeneration `json:"generations"`
}

// FleetzReply is the GET /v1/fleetz JSON schema.
type FleetzReply struct {
	Batches int64        `json:"telemetry_batches"`
	Records int64        `json:"telemetry_records"`
	Games   []FleetzGame `json:"games"`
}

// Fleetz snapshots the telemetry aggregator — the same view served at
// GET /v1/fleetz. Games and generations are sorted for stable output.
func (s *Service) Fleetz() FleetzReply {
	a := s.tel
	a.mu.Lock()
	defer a.mu.Unlock()
	reply := FleetzReply{Batches: a.batches, Records: a.records, Games: []FleetzGame{}}
	names := make([]string, 0, len(a.games))
	for name := range a.games {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		gt := a.games[name]
		fg := FleetzGame{
			Game:           name,
			LiveGeneration: gt.liveGen,
			PrevGeneration: gt.prevGen,
			Pressure:       gt.pressureWindow.Rate(),
		}
		fg.Drift, _ = gt.drift()
		fg.DriftVerdict = "steady"
		if fg.Drift > driftThreshold {
			fg.DriftVerdict = "drifting"
		} else if fg.Drift < -driftThreshold {
			fg.DriftVerdict = "recovered"
		}
		fg.PressureVerdict = "ok"
		if fg.Pressure > pressureThreshold {
			fg.PressureVerdict = "overloaded"
		}
		gens := make([]int64, 0, len(gt.gens))
		for gen := range gt.gens {
			gens = append(gens, gen)
		}
		sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
		for _, gen := range gens {
			g := gt.gens[gen]
			fgen := FleetzGeneration{
				Generation: g.generation, Records: g.records,
				Sessions: g.sessions, Events: g.events,
				Lookups: g.lookups, Hits: g.hits,
				Shadow: g.shadow, Mispredict: g.mispredict,
				SavedInstr: g.savedInstr, Devices: len(g.devices),
				MaxP99NS:           g.maxP99NS,
				WindowedHitRate:    g.hitWindow.Rate(),
				WindowedMispredict: g.shadowWindow.Rate(),
				EffectiveHitRate:   g.effectiveHitRate(),
				HitHistory:         g.hitWindow.Snapshot(),
			}
			if g.lookups > 0 {
				fgen.HitRate = float64(g.hits) / float64(g.lookups)
			}
			fg.Generations = append(fg.Generations, fgen)
		}
		reply.Games = append(reply.Games, fg)
	}
	return reply
}

// updateFleetGauges refreshes the per-game fleet gauges after an
// ingest: windowed hit rate of the live generation, the drift signal
// and the ingest-pressure signal, all in permille so the integer gauge
// keeps three digits of resolution (drift may be negative).
func (s *Service) updateFleetGauges(game string) {
	a := s.tel
	a.mu.Lock()
	gt, ok := a.games[game]
	if !ok {
		a.mu.Unlock()
		return
	}
	var hitRate, netPerEventUJ, savedFrac float64
	if live, ok := gt.gens[gt.liveGen]; ok {
		hitRate = live.effectiveHitRate()
		if sum, cnt := live.energyWindow.Totals(); cnt > 0 {
			netPerEventUJ = float64(sum) / float64(cnt)
		}
		if denom := live.energyUJ + live.savedUJ; denom > 0 {
			savedFrac = live.savedUJ / denom
		}
	}
	drift, _ := gt.drift()
	regression, _ := gt.energyRegression()
	pressure := gt.pressureWindow.Rate()
	a.mu.Unlock()
	s.reg.Gauge(`snip_cloud_fleet_hit_rate_permille{game="`+game+`"}`,
		"live generation's windowed effective hit rate, in permille").Set(int64(hitRate * 1000))
	s.reg.Gauge(`snip_cloud_fleet_drift_permille{game="`+game+`"}`,
		"effective-hit-rate drift of the live table generation vs its predecessor, in permille (positive = regression)").Set(int64(drift * 1000))
	s.reg.Gauge(`snip_cloud_fleet_ingest_pressure_permille{game="`+game+`"}`,
		"windowed device upload+telemetry queue occupancy, in permille").Set(int64(pressure * 1000))
	s.reg.Gauge(`snip_cloud_fleet_energy_per_event_nj{game="`+game+`"}`,
		"live generation's windowed net modeled energy per event (spend minus short-circuit credit), in nanojoules").Set(int64(netPerEventUJ * 1000))
	s.reg.Gauge(`snip_cloud_fleet_energy_regression_permille{game="`+game+`"}`,
		"net energy-per-event delta of the live table generation vs its predecessor, in permille (positive = live costs more)").Set(int64(regression * 1000))
	s.reg.Gauge(`snip_cloud_fleet_energy_saved_permille{game="`+game+`"}`,
		"live generation's short-circuit credit as a fraction of spend plus credit, in permille").Set(int64(savedFrac * 1000))
}

// handleTelemetry ingests a SNIPTEL1 telemetry batch (?game=G).
func (s *Service) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	game, ok := gameParam(w, r)
	if !ok {
		return
	}
	if !s.admit(w, PriorityTelemetry, game) {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxTelemetryBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.met.rejectedOversize.Inc()
			http.Error(w, "telemetry too large", http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "read: "+err.Error(), http.StatusBadRequest)
		return
	}
	batch, err := trace.DecodeTelemetryLimit(bytes.NewReader(body), MaxTelemetryDecodedBytes)
	if err != nil {
		if errors.Is(err, trace.ErrBatchTooLarge) {
			s.met.rejectedOversize.Inc()
			http.Error(w, "telemetry decoded size exceeds limit", http.StatusRequestEntityTooLarge)
			return
		}
		s.met.rejectedCorrupt.Inc()
		http.Error(w, "bad telemetry: "+err.Error(), http.StatusBadRequest)
		return
	}
	if batch.Game != "" && batch.Game != game {
		http.Error(w, fmt.Sprintf("telemetry game %q != %q", batch.Game, game), http.StatusBadRequest)
		return
	}
	if len(batch.Records) == 0 {
		http.Error(w, "empty telemetry batch", http.StatusBadRequest)
		return
	}
	if !s.tel.ingest(game, batch.Records) {
		s.met.telemetryDropped.Add(int64(len(batch.Records)))
		http.Error(w, "telemetry game limit reached", http.StatusTooManyRequests)
		return
	}
	s.met.telemetryBatches.Inc()
	s.met.telemetryRecords.Add(int64(len(batch.Records)))
	s.updateFleetGauges(game)
	fmt.Fprintf(w, "ok records=%d\n", len(batch.Records))
}

// handleFleetz serves the aggregated fleet view; ?game=G filters to
// one game and ?limit=N caps the generations returned per game (newest
// retained). A present-but-empty game or a non-positive limit is the
// caller's bug and gets a 400, not a silently unfiltered reply.
func (s *Service) handleFleetz(w http.ResponseWriter, r *http.Request) {
	game, ok := gameFilterParam(w, r)
	if !ok {
		return
	}
	limit, ok := limitParam(w, r)
	if !ok {
		return
	}
	reply := s.Fleetz()
	if game != "" {
		filtered := reply.Games[:0]
		for _, g := range reply.Games {
			if g.Game == game {
				filtered = append(filtered, g)
			}
		}
		reply.Games = filtered
	}
	if limit > 0 {
		for i := range reply.Games {
			if gens := reply.Games[i].Generations; len(gens) > limit {
				reply.Games[i].Generations = gens[len(gens)-limit:]
			}
		}
	}
	writeJSON(w, http.StatusOK, reply)
}

// gameFilterParam reads the optional ?game= filter. Unlike gameParam
// (which requires the value), absence is fine — but a present-and-empty
// "?game=" is rejected with a 400: the caller asked for a filter and
// named nothing, which would otherwise read as "no filter" and return
// every game.
func gameFilterParam(w http.ResponseWriter, r *http.Request) (string, bool) {
	vals, present := r.URL.Query()["game"]
	if !present {
		return "", true
	}
	if vals[0] == "" {
		http.Error(w, "empty game", http.StatusBadRequest)
		return "", false
	}
	return vals[0], true
}

// limitParam reads the optional ?limit= cap (0 = uncapped); a value
// that does not parse as a positive integer gets a 400.
func limitParam(w http.ResponseWriter, r *http.Request) (int, bool) {
	lq := r.URL.Query().Get("limit")
	if lq == "" {
		return 0, true
	}
	n, err := strconv.Atoi(lq)
	if err != nil || n < 1 {
		http.Error(w, "bad limit", http.StatusBadRequest)
		return 0, false
	}
	return n, true
}

// UploadTelemetry ships a device's folded telemetry records to the
// cloud as one SNIPTEL1 batch. Same transport contract as batch
// uploads: bounded retry on transient failures, trace propagation via
// sc, wire bytes and retry count reported either way.
func (c *Client) UploadTelemetry(game string, recs []trace.TelemetryRecord, sc obs.SpanContext) (BatchResult, error) {
	var buf bytes.Buffer
	if err := trace.EncodeTelemetry(&buf, &trace.TelemetryBatch{Game: game, Records: recs}); err != nil {
		return BatchResult{}, err
	}
	u := c.endpoint("/v1/telemetry", url.Values{"game": {game}})
	resp, retries, _, err := c.do(http.MethodPost, u, "application/octet-stream", buf.Bytes(), sc, nil)
	if err != nil {
		return BatchResult{Retries: retries}, err
	}
	defer resp.Body.Close()
	return BatchResult{Wire: units.Size(buf.Len()), Retries: retries}, errFromResponse(resp)
}
