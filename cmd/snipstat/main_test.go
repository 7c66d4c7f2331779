package main

import (
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"snip/internal/cloud"
	"snip/internal/obs"
	"snip/internal/pfi"
	"snip/internal/schemes"
	"snip/internal/trace"
	"snip/internal/units"
)

// TestRenderLiveService draws one frame against a real service that has
// ingested one upload batch and one telemetry record: every pane decodes
// the cloud's own reply types, so a schema change on the server shows up
// here rather than as silently zeroed dashboard fields.
func TestRenderLiveService(t *testing.T) {
	const game = "Colorphun"
	svc := cloud.NewServiceWithOptions(pfi.DefaultConfig(), cloud.ServiceOptions{Shards: 2})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	r, err := schemes.Run(schemes.Config{
		Game: game, Seed: 7, Duration: 2 * units.Second,
		Scheme: schemes.Baseline, CollectEventLog: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	client := cloud.NewClient(srv.URL)
	if _, err := client.UploadBatch(game, []trace.SessionEvents{{Seed: 7, Log: r.EventLog}}); err != nil {
		t.Fatal(err)
	}
	rec := trace.TelemetryRecord{Generation: 1, Sessions: 1, Events: 10, Lookups: 10, Hits: 4}
	if _, err := client.UploadTelemetry(game, []trace.TelemetryRecord{rec}, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	failed, err := render(&out, http.DefaultClient, srv.URL, 4, false, 0)
	frame := out.String()
	if failed != 0 {
		t.Fatalf("%d panes failed (first: %v):\n%s", failed, err, frame)
	}
	status, _, _ := strings.Cut(frame, "\n")
	if strings.Contains(status, "UNREACHABLE") || !strings.Contains(status, "OK") {
		t.Fatalf("status line %q, want a reachable, healthy service", status)
	}
	if !regexp.MustCompile(`(?m)^  #\d+ +` + game + ` +1 sess / 1 batches`).MatchString(frame) {
		t.Errorf("shard pane does not show the ingested batch:\n%s", frame)
	}
	for _, class := range []string{"guard", "telemetry", "bulk"} {
		if !regexp.MustCompile(`(?m)^  ` + class + ` +\d+ offered`).MatchString(frame) {
			t.Errorf("overload pane lacks the %s class:\n%s", class, frame)
		}
	}
	if !strings.Contains(frame, "1 records in 1 batches") {
		t.Errorf("telemetry pane does not show the shipped record:\n%s", frame)
	}
}
