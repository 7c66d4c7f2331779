package fleet

import (
	"strings"
	"testing"

	"snip/internal/chaos"
	"snip/internal/memo"
	"snip/internal/obs"
)

// aggressiveGuard samples every hit and judges after few samples, so a
// short test run reaches a verdict deterministically.
func aggressiveGuard() *GuardConfig {
	return &GuardConfig{ShadowSampleRate: 1.0, MaxMispredictRatio: 0.05, MinShadowSamples: 5}
}

// TestGuardDetectsPoisonedSwapAndRollsBack is the tentpole scenario: a
// good table is live, a poisoned OTA push displaces it, shadow
// verification catches the wrong outputs, the breaker trips, the shared
// table rolls back to the good generation, and the run ends healthy.
func TestGuardDetectsPoisonedSwapAndRollsBack(t *testing.T) {
	_, srv, _, table := bootCloud(t)
	srv.Close() // serve-only: the guard must heal without the cloud

	inj := chaos.New(chaos.Profile{Name: "table", Seed: 7, TablePoisonRate: 1.0})
	poisoned, n := inj.MaybePoisonTable(table)
	if n == 0 {
		t.Fatal("poisoning at rate 1.0 corrupted nothing")
	}
	if poisoned.Fingerprint() == table.Fingerprint() {
		t.Fatal("poisoned table has the original fingerprint")
	}

	shared := memo.NewShared(table)
	if gen := shared.Swap(poisoned); gen != 2 {
		t.Fatalf("poisoned swap got generation %d, want 2", gen)
	}

	reg := obs.NewRegistry()
	res, err := Run(Config{
		Game: testGame, Devices: 4, SessionsPerDevice: 2,
		SessionDuration: testDur, SeedBase: 5000,
		Table: shared, Guard: aggressiveGuard(), Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	g := res.Guard
	if g == nil {
		t.Fatal("guard enabled but no guard report")
	}
	if g.ShadowChecks == 0 || g.Mispredicts == 0 {
		t.Fatalf("poisoned table produced no evidence: %+v", g)
	}
	if g.Trips != 1 {
		t.Fatalf("trips %d, want 1", g.Trips)
	}
	if g.Rollbacks != 1 || res.Rollbacks != 1 {
		t.Fatalf("rollbacks guard=%d result=%d, want 1", g.Rollbacks, res.Rollbacks)
	}
	if g.BreakerOpen {
		t.Fatal("breaker still open after a successful rollback")
	}
	if len(g.TrippedGenerations) != 1 || g.TrippedGenerations[0] != 2 {
		t.Fatalf("tripped generations %v, want [2]", g.TrippedGenerations)
	}

	// The good generation is being served again; version stays monotonic.
	if res.TableGeneration != 1 {
		t.Fatalf("serving generation %d after rollback, want 1", res.TableGeneration)
	}
	if res.TableVersion != 2 {
		t.Fatalf("table version %d, want 2 (monotonic)", res.TableVersion)
	}
	if got := shared.Load().Fingerprint(); got != table.Fingerprint() {
		t.Fatal("rollback did not restore the good table")
	}

	snap := reg.Snapshot()
	if snap.Counters["snip_fleet_guard_trips_total"] != 1 ||
		snap.Counters["snip_fleet_table_rollbacks_total"] != 1 {
		t.Fatalf("guard counters off: trips=%d rollbacks=%d",
			snap.Counters["snip_fleet_guard_trips_total"],
			snap.Counters["snip_fleet_table_rollbacks_total"])
	}
	if snap.Counters["snip_fleet_guard_mispredicts_total"] != g.Mispredicts {
		t.Fatal("mispredict counter does not match the report")
	}
}

// TestGuardFailsSafeWithoutRollbackTarget: when the very first published
// table is bad there is nothing to roll back to — the breaker must stay
// open and every event after the trip must execute in full.
func TestGuardFailsSafeWithoutRollbackTarget(t *testing.T) {
	_, srv, _, table := bootCloud(t)
	srv.Close()

	inj := chaos.New(chaos.Profile{Name: "table", Seed: 7, TablePoisonRate: 1.0})
	poisoned, _ := inj.MaybePoisonTable(table)
	res, err := Run(Config{
		Game: testGame, Devices: 2, SessionsPerDevice: 2,
		SessionDuration: testDur, SeedBase: 6000,
		Table: memo.NewShared(poisoned), Guard: aggressiveGuard(),
	})
	if err != nil {
		t.Fatal(err)
	}
	g := res.Guard
	if g.Trips != 1 || g.Rollbacks != 0 {
		t.Fatalf("trips=%d rollbacks=%d, want 1 and 0", g.Trips, g.Rollbacks)
	}
	if !g.BreakerOpen {
		t.Fatal("breaker closed with no rollback target; fail-safe is to stay open")
	}
	// After the trip the devices stop probing, so lookups trail events.
	if res.Lookup.Lookups >= res.Events {
		t.Fatalf("lookups %d should trail events %d once the breaker opened",
			res.Lookup.Lookups, res.Events)
	}
}

// TestGuardQuietOnCleanTable: with an honest table the guard samples but
// never trips, and the run's aggregates match an unguarded run — the
// guard only reads, it never perturbs.
func TestGuardQuietOnCleanTable(t *testing.T) {
	_, srv, _, table := bootCloud(t)
	srv.Close()

	run := func(guard *GuardConfig) *Result {
		res, err := Run(Config{
			Game: testGame, Devices: 2, SessionsPerDevice: 2,
			SessionDuration: testDur, SeedBase: 7000,
			Table: memo.NewShared(table), Guard: guard,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	guarded := run(aggressiveGuard())
	bare := run(nil)

	g := guarded.Guard
	if g == nil || g.ShadowChecks == 0 {
		t.Fatal("guard at rate 1.0 sampled nothing")
	}
	if g.Trips != 0 || g.BreakerOpen {
		t.Fatalf("clean table tripped the breaker: %+v", g)
	}
	if bare.Guard != nil {
		t.Fatal("disabled guard still produced a report")
	}
	if guarded.Events != bare.Events || guarded.Lookup.Lookups != bare.Lookup.Lookups ||
		guarded.Lookup.Hits != bare.Lookup.Hits {
		t.Fatalf("guard perturbed the run: guarded events=%d lookups=%d hits=%d, bare events=%d lookups=%d hits=%d",
			guarded.Events, guarded.Lookup.Lookups, guarded.Lookup.Hits,
			bare.Events, bare.Lookup.Lookups, bare.Lookup.Hits)
	}
}

// TestChaosCrashIsolation: with every session crashing, every device
// fails — and the run still completes, reporting the failures instead of
// aborting.
func TestChaosCrashIsolation(t *testing.T) {
	_, srv, _, table := bootCloud(t)
	srv.Close()

	inj := chaos.New(chaos.Profile{Name: "devices", Seed: 3, DeviceCrashRate: 1.0})
	reg := obs.NewRegistry()
	res, err := Run(Config{
		Game: testGame, Devices: 3, SessionsPerDevice: 2,
		SessionDuration: testDur, SeedBase: 8000,
		Table: memo.NewShared(table), Chaos: inj, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedDevices != 3 {
		t.Fatalf("failed devices %d, want 3", res.FailedDevices)
	}
	for _, d := range res.PerDevice {
		if !d.Failed || !strings.Contains(d.FailReason, "crash") {
			t.Fatalf("device %d: Failed=%v reason=%q", d.Device, d.Failed, d.FailReason)
		}
	}
	if res.Sessions != 0 {
		t.Fatalf("sessions %d with crash rate 1.0, want 0", res.Sessions)
	}
	if res.Chaos == nil || res.Chaos.Counts.DeviceCrashes != 3 {
		t.Fatalf("chaos counts missing or wrong: %+v", res.Chaos)
	}
	if got := reg.Snapshot().Counters["snip_fleet_device_failures_total"]; got != 3 {
		t.Fatalf("failure counter %d, want 3", got)
	}
	// Health must mirror the carnage: the failed-devices verdict fails.
	found := false
	for _, v := range res.Health.Verdicts {
		if v.Name == "failed_devices" {
			found = true
			if v.OK {
				t.Fatal("failed_devices verdict OK with the whole fleet down")
			}
		}
	}
	if !found {
		t.Fatal("no failed_devices verdict in health")
	}
}

// TestChaosDeterministicCounts: the same profile seed deals the same
// faults — chaos runs are replayable.
func TestChaosDeterministicCounts(t *testing.T) {
	_, srv, _, table := bootCloud(t)
	srv.Close()

	run := func() chaos.Counts {
		inj := chaos.New(chaos.Profile{
			Name: "mixed", Seed: 11,
			SensorDropRate: 0.05, SensorDupRate: 0.05,
			SensorStuckRate: 0.03, SensorOutOfOrderRate: 0.02,
			DeviceCrashRate: 0.2,
		})
		_, err := Run(Config{
			Game: testGame, Devices: 4, SessionsPerDevice: 2,
			SessionDuration: testDur, SeedBase: 9000,
			Table: memo.NewShared(table), Chaos: inj,
		})
		if err != nil {
			t.Fatal(err)
		}
		return inj.Counts()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("fault counts differ across identical runs:\n  a: %+v\n  b: %+v", a, b)
	}
	if a.Total() == 0 {
		t.Fatal("mixed profile injected nothing")
	}
}
