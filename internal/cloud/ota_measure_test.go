package cloud

// Measurement harness reproducing the EXPERIMENTS.md "Sharded profiler
// & delta OTA" per-game table: boot a profile, then per refresh round
// ingest one session, rebuild, and compare the negotiated delta against
// the full image the device would otherwise fetch at that same swap.
// Skipped in the normal suite; run with:
//
//	SNIP_MEASURE_OTA=1 go test -run TestMeasureOTA -v ./internal/cloud

import (
	"fmt"
	"net/http/httptest"
	"os"
	"testing"

	"snip/internal/games"
	"snip/internal/memo"
	"snip/internal/pfi"
	"snip/internal/schemes"
	"snip/internal/units"
)

func TestMeasureOTA(t *testing.T) {
	if os.Getenv("SNIP_MEASURE_OTA") == "" {
		t.Skip("measurement harness; set SNIP_MEASURE_OTA=1")
	}
	const boot = 3
	const rounds = 4
	for _, game := range games.Names() {
		svc := NewServiceWithOptions(pfi.DefaultConfig(), ServiceOptions{Shards: 2})
		srv := httptest.NewServer(svc.Handler())
		client := NewClient(srv.URL)
		upload := func(seed uint64) {
			r, err := schemes.Run(schemes.Config{
				Game: game, Seed: seed, Duration: 10 * units.Second,
				Scheme: schemes.Baseline, CollectEventLog: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			uploadSession(t, client, game, seed, r.EventLog)
		}
		seed := uint64(6100)
		for i := 0; i < boot; i++ {
			upload(seed)
			seed++
		}
		if err := client.Rebuild(game); err != nil {
			t.Fatal(err)
		}
		up := fetchFull(t, client, game)
		base := up.Table.(*memo.FlatTable)
		baseVer := up.Version
		var deltaSum, fullSum int64
		var swaps int
		for i := 0; i < rounds; i++ {
			upload(seed)
			seed++
			if err := client.Rebuild(game); err != nil {
				t.Fatal(err)
			}
			ur, err := client.FetchUpdate(game, baseVer, base)
			if err != nil {
				t.Fatal(err)
			}
			if ur.NotModified || ur.Format != "delta" || ur.FullFallback {
				t.Fatalf("%s round %d: format=%q fallback=%v", game, i, ur.Format, ur.FullFallback)
			}
			flat := ur.Update.Table.(*memo.FlatTable)
			deltaSum += int64(ur.DeltaBytes)
			fullSum += int64(len(flat.Image()))
			swaps++
			base, baseVer = flat, ur.Update.Version
		}
		fmt.Printf("%-14s rows=%5d image=%8dB delta/swap=%7dB full/swap=%8dB ratio=%6.1fx\n",
			game, base.Rows(), len(base.Image()),
			deltaSum/int64(swaps), fullSum/int64(swaps),
			float64(fullSum)/float64(deltaSum))
		srv.Close()
		svc.Close()
	}
}
