package fleet

import (
	"net/http/httptest"
	"testing"

	"snip/internal/cloud"
	"snip/internal/memo"
	"snip/internal/obs"
	"snip/internal/pfi"
	"snip/internal/schemes"
	"snip/internal/trace"
	"snip/internal/units"
)

const (
	testGame = "Colorphun"
	testDur  = 10 * units.Second
)

// bootCloud starts a profiler service, seeds it with a few recorded
// sessions and builds the first table — the state a fleet joins.
func bootCloud(t *testing.T) (*cloud.Service, *httptest.Server, *cloud.Client, memo.Table) {
	t.Helper()
	svc := cloud.NewServiceWithOptions(pfi.DefaultConfig(), cloud.ServiceOptions{})
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	client := cloud.NewClient(srv.URL)
	var boot []trace.SessionEvents
	for seed := uint64(900); seed < 903; seed++ {
		r, err := schemes.Run(schemes.Config{
			Game: testGame, Seed: seed, Duration: testDur,
			Scheme: schemes.Baseline, CollectEventLog: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		boot = append(boot, trace.SessionEvents{Seed: seed, Log: r.EventLog})
	}
	if _, err := client.UploadBatch(testGame, boot); err != nil {
		t.Fatal(err)
	}
	if err := client.Rebuild(testGame); err != nil {
		t.Fatal(err)
	}
	res, err := client.FetchUpdate(testGame, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return svc, srv, client, res.Update.Table
}

// TestFleetEndToEnd is the integration gate: 8 devices serve from one
// shared table, upload in gzip'd batches, and one device performs a live
// OTA rebuild+swap mid-run while the others keep probing. Run under
// -race by ci.sh.
func TestFleetEndToEnd(t *testing.T) {
	svc, _, client, table := bootCloud(t)

	const (
		devices  = 8
		sessions = 2
		batch    = 2
	)
	shared := memo.NewShared(table)
	reg := obs.NewRegistry()
	res, err := Run(Config{
		Game: testGame, Devices: devices, SessionsPerDevice: sessions,
		SessionDuration: testDur, SeedBase: 1000,
		Table: shared, Client: client, BatchSize: batch,
		RefreshAfterSessions: 6, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	if res.Sessions != devices*sessions {
		t.Fatalf("sessions %d, want %d", res.Sessions, devices*sessions)
	}
	// Every device packs its 2 sessions into one batch.
	if res.Batches != devices {
		t.Fatalf("batches %d, want %d", res.Batches, devices)
	}
	if res.Events == 0 || res.Lookup.Lookups != res.Events {
		t.Fatalf("lookups %d != events %d (table was live the whole run)",
			res.Lookup.Lookups, res.Events)
	}
	if res.Lookup.Hits == 0 {
		t.Fatal("fleet never short-circuited against a trained table")
	}

	// Exactly one live OTA swap happened; the run ends on version 2.
	if res.Swaps != 1 {
		t.Fatalf("swaps %d, want 1", res.Swaps)
	}
	if res.TableVersion != 2 {
		t.Fatalf("table version %d, want 2", res.TableVersion)
	}
	if !shared.Load().Frozen() {
		t.Fatal("published table not frozen")
	}

	// Batched ingest beats per-session uploads on the wire.
	if res.UploadBytes == 0 || res.UploadBytes >= res.RawBytes {
		t.Fatalf("batching saved nothing: %v wire vs %v raw", res.UploadBytes, res.RawBytes)
	}
	if res.P50LookupNS <= 0 || res.P99LookupNS < res.P50LookupNS {
		t.Fatalf("latency estimates p50=%d p99=%d", res.P50LookupNS, res.P99LookupNS)
	}
	if want := float64(res.Events) / res.Wall.Seconds(); res.EventsPerSec <= 0 || res.EventsPerSec != want {
		t.Fatalf("events/sec %v, want events/wall = %v", res.EventsPerSec, want)
	}

	// The cloud saw every session, individually counted, via the batch
	// endpoint (plus the 3 sessions of the one boot batch).
	snap := svc.Metrics().Snapshot()
	if got := snap.Counters["snip_cloud_uploads_total"]; got != int64(devices*sessions+3) {
		t.Errorf("cloud uploads %d, want %d", got, devices*sessions+3)
	}
	if got := snap.Counters["snip_cloud_upload_batches_total"]; got != int64(devices+1) {
		t.Errorf("cloud batches %d, want %d", got, devices+1)
	}

	// Fleet-side metrics mirror the result.
	fsnap := reg.Snapshot()
	if got := fsnap.Counters["snip_fleet_lookups_total"]; got != res.Lookup.Lookups {
		t.Errorf("fleet lookup counter %d, want %d", got, res.Lookup.Lookups)
	}
	if got := fsnap.Counters["snip_fleet_table_swaps_total"]; got != 1 {
		t.Errorf("fleet swap counter %d, want 1", got)
	}
	if h, ok := fsnap.Histograms["snip_fleet_lookup_ns"]; !ok || h.Count != res.Lookup.Lookups {
		t.Errorf("latency histogram count %d, want %d", h.Count, res.Lookup.Lookups)
	}
}

// TestFleetDeterministicAggregates pins the open-loop property: two runs
// with the same seeds — different cloud instances, different goroutine
// interleavings, a live swap racing the readers — deliver identical
// session, event and lookup counts. (Hit counts may differ: they depend
// on which table version each probe happened to load.)
func TestFleetDeterministicAggregates(t *testing.T) {
	run := func() *Result {
		_, _, client, table := bootCloud(t)
		res, err := Run(Config{
			Game: testGame, Devices: 4, SessionsPerDevice: 2,
			SessionDuration: testDur, SeedBase: 2000,
			Table: memo.NewShared(table), Client: client, BatchSize: 2,
			RefreshAfterSessions: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Sessions != b.Sessions || a.Events != b.Events || a.Lookup.Lookups != b.Lookup.Lookups {
		t.Fatalf("aggregates not deterministic:\n  a: sessions=%d events=%d lookups=%d\n  b: sessions=%d events=%d lookups=%d",
			a.Sessions, a.Events, a.Lookup.Lookups, b.Sessions, b.Events, b.Lookup.Lookups)
	}
	if a.Batches != b.Batches || a.UploadBytes != b.UploadBytes {
		t.Fatalf("upload accounting not deterministic: %d/%v vs %d/%v",
			a.Batches, a.UploadBytes, b.Batches, b.UploadBytes)
	}
}

// TestFleetMultiRoundDeltaOTA drives several OTA rounds through the
// generation-negotiated update path: the first round pulls the full
// image (the boot table has no cloud generation), later rounds arrive
// as delta chains patched onto the previous fetch — the wire-byte
// reduction the delta OTA tier exists for.
func TestFleetMultiRoundDeltaOTA(t *testing.T) {
	_, _, client, table := bootCloud(t)
	shared := memo.NewShared(table)
	res, err := Run(Config{
		Game: testGame, Devices: 4, SessionsPerDevice: 4,
		SessionDuration: testDur, SeedBase: 7000,
		Table: shared, Client: client, BatchSize: 1,
		RefreshAfterSessions: 4, Refreshes: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OTAUpdates != 3 || res.Swaps != 3 {
		t.Fatalf("updates=%d swaps=%d, want 3 rounds", res.OTAUpdates, res.Swaps)
	}
	// Boot built v1; three rounds rebuilt v2..v4.
	if res.TableVersion != 4 {
		t.Fatalf("table version %d, want 4", res.TableVersion)
	}
	if res.OTABytes != res.OTADeltaBytes+res.OTAFullBytes {
		t.Fatalf("ota accounting: %v != %v + %v", res.OTABytes, res.OTADeltaBytes, res.OTAFullBytes)
	}
	if res.OTAFullFallbacks != 0 {
		t.Fatalf("healthy bases fell back to full images %d times", res.OTAFullFallbacks)
	}
	if res.OTADeltaApplies < 1 {
		t.Fatalf("no round rode the delta path: %+v", res)
	}
	if res.OTADeltaLinks < res.OTADeltaApplies || res.OTAMaxChain < 1 {
		t.Fatalf("chain accounting: links=%d applies=%d max=%d",
			res.OTADeltaLinks, res.OTADeltaApplies, res.OTAMaxChain)
	}
	// The delta rounds moved fewer bytes than the single full round —
	// otherwise the tier is theater.
	if res.OTADeltaBytes >= res.OTAFullBytes {
		t.Fatalf("delta rounds (%v) not cheaper than the full round (%v)",
			res.OTADeltaBytes, res.OTAFullBytes)
	}
}

// TestFleetServeOnly covers the cloudless shape: no client, no uploads,
// just lookup serving.
func TestFleetServeOnly(t *testing.T) {
	_, srv, _, table := bootCloud(t)
	srv.Close() // the fleet must never touch it
	res, err := Run(Config{
		Game: testGame, Devices: 2, SessionsPerDevice: 1,
		SessionDuration: testDur, SeedBase: 3000,
		Table: memo.NewShared(table),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Batches != 0 || res.UploadBytes != 0 {
		t.Fatal("serve-only run uploaded something")
	}
	if res.Lookup.Lookups == 0 {
		t.Fatal("no lookups served")
	}
}

// TestFleetColdStart covers an initially empty Shared: devices execute
// every event until the OTA refresh publishes the first table.
func TestFleetColdStart(t *testing.T) {
	_, _, client, _ := bootCloud(t)
	shared := memo.NewShared(nil)
	res, err := Run(Config{
		Game: testGame, Devices: 2, SessionsPerDevice: 2,
		SessionDuration: testDur, SeedBase: 4000,
		Table: shared, Client: client, BatchSize: 1,
		RefreshAfterSessions: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Swaps != 1 || shared.Load() == nil {
		t.Fatalf("cold start never published a table (swaps=%d)", res.Swaps)
	}
	// Some events ran before the first table existed.
	if res.Lookup.Lookups >= res.Events {
		t.Fatalf("lookups %d should trail events %d on a cold start", res.Lookup.Lookups, res.Events)
	}
}

func TestFleetValidation(t *testing.T) {
	bad := []Config{
		{},
		{Game: testGame},
		{Game: testGame, Devices: 1},
		{Game: testGame, Devices: 1, SessionsPerDevice: 1},
		{Game: testGame, Devices: 1, SessionsPerDevice: 1, SessionDuration: testDur},
		{Game: testGame, Devices: 1, SessionsPerDevice: 1, SessionDuration: testDur,
			Table: memo.NewShared(nil), RefreshAfterSessions: 1}, // refresh without client
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}
