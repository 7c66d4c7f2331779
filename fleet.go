package snip

import (
	"time"

	"snip/internal/chaos"
	"snip/internal/cloud"
	"snip/internal/fleet"
	"snip/internal/memo"
	"snip/internal/units"
)

// SharedTable publishes one immutable lookup table to any number of
// concurrent readers and supports live OTA replacement (RCU-style: new
// probes see the new table immediately, in-flight probes finish on the
// old one). It is what a device fleet serves from.
type SharedTable struct {
	s *memo.Shared
}

// NewSharedTable publishes a built table. A nil table is allowed: the
// fleet then executes everything until the first Publish.
func NewSharedTable(t *Table) *SharedTable {
	if t == nil {
		return &SharedTable{s: memo.NewShared(nil)}
	}
	return &SharedTable{s: memo.NewShared(t.t)}
}

// Publish atomically swaps in a new table, returning the new generation
// number. The displaced table is retained for one Rollback.
func (s *SharedTable) Publish(t *Table) int64 { return s.s.Swap(t.t) }

// Version returns the number of publications so far (0 when empty). It
// is monotonic even across rollbacks.
func (s *SharedTable) Version() int64 { return s.s.Version() }

// Generation returns the generation of the table currently being served
// — equal to Version until a Rollback restores an older one.
func (s *SharedTable) Generation() int64 { return s.s.Generation() }

// Swaps returns how many live replacements have happened.
func (s *SharedTable) Swaps() int64 { return s.s.Swaps() }

// Rollback re-publishes the table displaced by the last Publish — the
// remedy for a bad OTA push. It reports the restored generation, or
// false when there is nothing retained to restore (never published
// twice, or the retained table was already consumed by a rollback).
func (s *SharedTable) Rollback() (int64, bool) { return s.s.Rollback() }

// FleetDetailMax is the largest fleet that still reports per-device
// results and per-device health rows; bigger runs report aggregates
// only (at 100k devices the per-device JSON would dwarf the figures).
const FleetDetailMax = fleet.PerDeviceDetailMax

// FleetOptions configures a device-fleet serving run: N concurrent
// simulated devices playing workload-generated sessions against one
// SharedTable, optionally uploading their event logs to a cloud profiler
// in gzip'd batches and performing one live OTA table refresh mid-run.
type FleetOptions struct {
	// Game names the workload every device plays.
	Game string
	// Workload selects the behaviour-model preset ("" or "default" is
	// plain human play; "eventcam" layers an event-camera-style
	// high-rate motion sensor on top, multiplying the event rate 10–100×
	// — the saturating input for overload runs).
	Workload string
	// Devices is the number of concurrent devices (default 1).
	Devices int
	// SessionsPerDevice is how many sessions each device plays
	// (default 1).
	SessionsPerDevice int
	// Duration is each session's simulated length.
	Duration time.Duration
	// SeedBase offsets per-session seeds for reproducible runs.
	SeedBase uint64
	// Table is the shared table to serve from. Required.
	Table *SharedTable
	// CloudURL, when non-empty, points at a CloudService; devices then
	// upload finished sessions in batches of BatchSize. A 429 is retried
	// after its Retry-After within each device's retry budget; a batch
	// the cloud refuses for good is counted shed or dropped (so
	// OfferedBatches = Batches + BatchesShed + BatchesDropped) and the
	// device keeps playing.
	CloudURL string
	// BatchSize is sessions per batched upload (default 1).
	BatchSize int
	// RefreshAfterSessions, when > 0, has one device trigger a cloud
	// rebuild + generation-negotiated update fetch + live swap once that
	// many sessions have been uploaded fleet-wide.
	RefreshAfterSessions int
	// Refreshes is how many OTA rounds the run performs: round k fires
	// after k*RefreshAfterSessions uploaded sessions. <= 1 keeps the
	// single-refresh behaviour. Rounds past the first ride the delta
	// path — the fleet already holds the previous generation.
	Refreshes int
	// Metrics, when non-nil, receives the snip_fleet_* series, the cloud
	// client's retry counter, and distributed-tracing spans (session and
	// batch-upload granularity) in its span buffer — with exemplar trace
	// IDs attached to the lookup-latency histogram.
	Metrics *Metrics
	// Chaos, when non-nil with a profile other than "off", injects
	// deterministic faults into the run (sensor glitches, device
	// crashes/stalls, wire corruption, poisoned OTA tables). Nil means no
	// fault injection and a byte-identical run.
	Chaos *ChaosOptions
	// Guard, when non-nil with a positive ShadowSampleRate, enables the
	// mispredict guard: sampled shadow verification of memo hits, a
	// circuit breaker on the mispredict ratio, and automatic rollback of
	// a bad OTA table. Nil disables.
	Guard *GuardOptions
	// Telemetry, when true, has every device fold per-table-generation
	// tallies into compact records and ship them to the cloud's
	// POST /v1/telemetry alongside the upload batches (requires
	// CloudURL). The cloud aggregates them into the windowed fleet
	// rollups served at GET /v1/fleetz. Telemetry consumes no
	// randomness and no wall-clock: enabling it leaves every
	// deterministic run tally byte-identical.
	Telemetry bool
	// TelemetryFlushRecords is how many folded records a device buffers
	// before shipping a batch (default 8).
	TelemetryFlushRecords int
	// Energy, when true, enables the device-side energy attribution
	// ledger: every handled event charges modeled µJ split by the
	// paper's Fig. 2 groups and tagged cause buckets, rolled up into
	// FleetReport.Energy, the health verdicts, and (with Telemetry) the
	// records behind the cloud's GET /v1/energyz. The ledger consumes no
	// randomness and no wall-clock: enabling it leaves every
	// deterministic run tally byte-identical.
	Energy bool
	// Workers sizes the fleet's shared scheduler pool (0 = 2×GOMAXPROCS
	// capped at Devices). The scheduler plays every device on this fixed
	// pool, so 100k-device runs fit on one box.
	Workers int
	// SpeedGrades assigns heterogeneous SoC speed grades cyclically by
	// device index; a grade scales the device's energy-ledger CPU rates
	// (0.5 = half-speed part, twice the µJ per instruction). Nil is a
	// homogeneous fleet, byte-identical to builds without the knob.
	SpeedGrades []float64
}

// ChaosOptions selects a fault-injection profile for a fleet run.
type ChaosOptions struct {
	// Profile is one of "off", "sensors", "devices", "wire", "table",
	// "all". Empty means off.
	Profile string
	// Seed roots every fault decision; the same profile and seed replay
	// the same faults. 0 uses a fixed default.
	Seed uint64
}

// GuardOptions tunes the fleet's mispredict guard. Zero thresholds fall
// back to the defaults (trip past a 2% mispredict ratio, judge a table
// generation only after 20 shadow checks).
type GuardOptions struct {
	// ShadowSampleRate is the fraction of memo hits shadow-verified.
	// <= 0 disables the guard.
	ShadowSampleRate float64
	// MaxMispredictRatio trips the circuit breaker.
	MaxMispredictRatio float64
	// MinShadowSamples is the evidence floor before a generation can trip.
	MinShadowSamples int64
}

// FleetReport aggregates a fleet run, JSON-encodable for BENCH files:
// the fleet package's Result itself, so its fields and JSON tags are the
// one declaration of the report schema. Sub-reports are reached through
// its fields (Health, Guard, Chaos, Telemetry, Energy).
type FleetReport = fleet.Result

// RunFleet executes a fleet serving run and reports its aggregate rates.
func RunFleet(o FleetOptions) (*FleetReport, error) {
	if o.Devices == 0 {
		o.Devices = 1
	}
	if o.SessionsPerDevice == 0 {
		o.SessionsPerDevice = 1
	}
	if o.BatchSize == 0 {
		o.BatchSize = 1
	}
	cfg := fleet.Config{
		Game:                 o.Game,
		Workload:             o.Workload,
		Devices:              o.Devices,
		SessionsPerDevice:    o.SessionsPerDevice,
		SessionDuration:      units.Time(o.Duration / time.Microsecond),
		SeedBase:             o.SeedBase,
		BatchSize:            o.BatchSize,
		RefreshAfterSessions: o.RefreshAfterSessions,
		Refreshes:            o.Refreshes,
		Obs:                  o.Metrics.Registry(),
		Spans:                o.Metrics.SpanBuffer(),
		Workers:              o.Workers,
		SpeedGrades:          o.SpeedGrades,
	}
	if o.Table != nil {
		cfg.Table = o.Table.s
	}
	var inj *chaos.Injector
	if o.Chaos != nil && o.Chaos.Profile != "" && o.Chaos.Profile != "off" {
		prof, err := chaos.Named(o.Chaos.Profile)
		if err != nil {
			return nil, err
		}
		prof.Seed = o.Chaos.Seed
		inj = chaos.New(prof)
		cfg.Chaos = inj
	}
	if o.Guard != nil && o.Guard.ShadowSampleRate > 0 {
		cfg.Guard = &fleet.GuardConfig{
			ShadowSampleRate:   o.Guard.ShadowSampleRate,
			MaxMispredictRatio: o.Guard.MaxMispredictRatio,
			MinShadowSamples:   o.Guard.MinShadowSamples,
		}
	}
	if o.Telemetry {
		cfg.Telemetry = &fleet.TelemetryConfig{FlushRecords: o.TelemetryFlushRecords}
	}
	if o.Energy {
		cfg.Energy = &fleet.EnergyConfig{}
	}
	if o.CloudURL != "" {
		cfg.Client = cloud.NewClient(o.CloudURL)
		cfg.Client.SetMetrics(o.Metrics.Registry())
		// Wire chaos lives on the client's transport: every upload, rebuild
		// and table fetch crosses the faulty link. Nil-safe no-op when the
		// profile has no wire faults.
		cfg.Client.HTTP.Transport = inj.Transport(cfg.Client.HTTP.Transport)
	}
	return fleet.Run(cfg)
}
