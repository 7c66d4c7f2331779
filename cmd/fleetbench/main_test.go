package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"snip"
)

// TestCommittedBenchFiles: every BENCH file at the repository root must
// pass its own gate, so a schema change that strands a committed file
// fails the test suite, not only the smoke gates.
func TestCommittedBenchFiles(t *testing.T) {
	for _, name := range []string{"BENCH_fleet.json", "BENCH_shards.json", "BENCH_lookup.json"} {
		if err := validateFile(filepath.Join("..", "..", name)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestSweepValidates runs a tiny fleet sweep point end to end (two OTA
// rounds, telemetry and the energy ledger on), writes it as a bench file
// and checks the gate accepts it — and rejects copies with its batch
// conservation ledger broken by one, with a batch shed against a cloud
// configured not to shed, or with a batch dropped on a clean run.
func TestSweepValidates(t *testing.T) {
	const game, secs = "Colorphun", 2
	dur := secs * time.Second
	profile, err := snip.Profile(game, snip.ProfileOptions{Sessions: 2, Duration: dur})
	if err != nil {
		t.Fatal(err)
	}
	table, _, err := snip.BuildTable(profile, snip.DefaultPFIOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := table.Flatten(); err != nil {
		t.Fatal(err)
	}
	set := runSettings{
		game: game, table: table, sessions: 1, dur: dur, batch: 2,
		ota: true, refreshes: 2, shards: 1,
		telemetry: true, energy: true,
	}
	run, _, _, err := runOnce(set, 2, snip.NewMetrics())
	if err != nil {
		t.Fatal(err)
	}
	if run.OTAUpdates < 1 || run.Overloadz == nil {
		t.Fatalf("sweep point skipped the loop: %d OTA updates, overloadz %v", run.OTAUpdates, run.Overloadz)
	}
	file := &benchFile{
		Bench: "fleet", Game: game, SessionsPerDevice: set.sessions,
		SessionSecs: secs, BatchSize: set.batch, Backend: "flat",
		Shards: set.shards, Refreshes: set.refreshes,
		Telemetry: true, Energy: true,
		Runs: []*fleetRun{run},
	}
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	if err := writeBench(good, file); err != nil {
		t.Fatal(err)
	}
	if err := validateFile(good); err != nil {
		t.Fatalf("fresh sweep rejected: %v", err)
	}

	b, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	// reject writes a copy of the good file with run 0 edited and checks
	// the gate refuses it with an error mentioning want.
	reject := func(name string, edit func(r0 map[string]any), want string) {
		t.Helper()
		var doc map[string]any
		if err := json.Unmarshal(b, &doc); err != nil {
			t.Fatal(err)
		}
		edit(doc["runs"].([]any)[0].(map[string]any))
		bad := filepath.Join(dir, name+".json")
		if err := writeBench(bad, doc); err != nil {
			t.Fatal(err)
		}
		if err := validateFile(bad); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: got %v, want an error mentioning %q", name, err, want)
		}
	}
	bump := func(r0 map[string]any, keys ...string) {
		for _, k := range keys {
			r0[k] = r0[k].(float64) + 1
		}
	}
	reject("broken-ledger", func(r0 map[string]any) { bump(r0, "offered_batches") },
		"offered")
	// The ledger still balances in the next two; what breaks is the
	// outcome itself. A cloud with no quota and no queue cap never sheds,
	// and a clean run never drops a batch.
	reject("shed-without-quota", func(r0 map[string]any) { bump(r0, "offered_batches", "batches_shed") },
		"shed without a quota")
	reject("dropped-on-clean-run", func(r0 map[string]any) { bump(r0, "offered_batches", "batches_dropped") },
		"dropped on a clean run")
}
