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
// and checks the gate accepts it — and rejects the same file with its
// batch conservation ledger broken by one.
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
	var doc map[string]any
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	r0 := doc["runs"].([]any)[0].(map[string]any)
	r0["offered_batches"] = r0["offered_batches"].(float64) + 1
	bad := filepath.Join(dir, "bad.json")
	if err := writeBench(bad, doc); err != nil {
		t.Fatal(err)
	}
	err = validateFile(bad)
	if err == nil || !strings.Contains(err.Error(), "offered") {
		t.Fatalf("broken batch ledger: got %v, want an offered != accepted + shed + dropped error", err)
	}
}
