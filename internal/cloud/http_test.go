package cloud

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"snip/internal/obs"
	"snip/internal/pfi"
	"snip/internal/trace"
)

func testServer(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	svc := NewServiceWithOptions(pfi.DefaultConfig(), ServiceOptions{})
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	return svc, srv
}

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, string(body)
}

func post(t *testing.T, url string, body io.Reader) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", body)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, string(b)
}

// TestMissingGameParam pins the shared validation: every game-keyed
// endpoint answers 400 with the same message when ?game= is absent.
func TestMissingGameParam(t *testing.T) {
	_, srv := testServer(t)
	cases := []struct{ method, path string }{
		{"POST", "/v1/upload-batch"},
		{"POST", "/v1/rebuild"},
		{"GET", "/v1/update"},
		{"GET", "/v1/status"},
	}
	for _, c := range cases {
		var resp *http.Response
		var body string
		if c.method == "GET" {
			resp, body = get(t, srv.URL+c.path)
		} else {
			resp, body = post(t, srv.URL+c.path, nil)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %s without game: status %d, want 400", c.method, c.path, resp.StatusCode)
		}
		if !strings.Contains(body, "missing game") {
			t.Errorf("%s %s: body %q, want the shared missing-game message", c.method, c.path, body)
		}
	}
}

// TestUploadCorruptBody: a body that is not a batch at all answers 400
// and counts as corrupt.
func TestUploadCorruptBody(t *testing.T) {
	svc, srv := testServer(t)
	resp, body := post(t, srv.URL+"/v1/upload-batch?game=Colorphun",
		bytes.NewReader([]byte("this is not a batch")))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(body, "bad batch") {
		t.Fatalf("body %q, want a bad-batch message", body)
	}
	if got := svc.Metrics().Snapshot().Counters["snip_cloud_uploads_rejected_corrupt_total"]; got != 1 {
		t.Fatalf("corrupt rejections %d, want 1", got)
	}
}

func TestTableBeforeRebuild(t *testing.T) {
	_, srv := testServer(t)
	resp, body := get(t, srv.URL+"/v1/update?game=Colorphun")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
	if !strings.Contains(body, "no table") {
		t.Fatalf("body %q, want a no-table message", body)
	}
}

// TestMetricsEndpoint drives real traffic through the service and then
// checks the exposition: request counters per endpoint, error counters
// for the 4xx paths, and business counters for uploads and rebuilds.
func TestMetricsEndpoint(t *testing.T) {
	svc, srv := testServer(t)
	client := NewClient(srv.URL)

	uploadSession(t, client, "Colorphun", 0xA1, record(t, "Colorphun", 0xA1).EventLog)
	if err := client.Rebuild("Colorphun"); err != nil {
		t.Fatal(err)
	}
	fetchFull(t, client, "Colorphun")
	// One deliberate error: missing game on status.
	if resp, _ := get(t, srv.URL+"/v1/status"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status without game: %d", resp.StatusCode)
	}

	resp, body := get(t, srv.URL+"/v1/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	for _, want := range []string{
		`snip_cloud_requests_total{endpoint="upload-batch"} 1`,
		`snip_cloud_requests_total{endpoint="rebuild"} 1`,
		`snip_cloud_requests_total{endpoint="update"} 1`,
		`snip_cloud_request_errors_total{endpoint="status"} 1`,
		"snip_cloud_uploads_total 1",
		"snip_cloud_upload_batches_total 1",
		"snip_cloud_rebuilds_total 1",
		"snip_cloud_tables_served_total 1",
		`snip_cloud_table_version{game="Colorphun"} 1`,
		// Rebuild-time PFI search surfaces in the same exposition.
		"snip_pfi_types_total",
		`snip_cloud_request_ns_count{endpoint="upload-batch"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// The snapshot agrees with what the handlers counted.
	snap := svc.Metrics().Snapshot()
	if snap.Counters["snip_cloud_uploads_total"] != 1 {
		t.Errorf("snapshot uploads %d, want 1", snap.Counters["snip_cloud_uploads_total"])
	}
	if snap.Counters["snip_cloud_records_total"] == 0 {
		t.Error("no records counted for the ingested upload")
	}
}

// TestClientURLEscaping pins the url.Values construction: a game name
// with reserved characters must arrive intact, not mangled into extra
// parameters.
func TestClientURLEscaping(t *testing.T) {
	var seenGame string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seenGame = r.URL.Query().Get("game")
	}))
	defer srv.Close()
	client := NewClient(srv.URL)
	weird := "a game&x=1?y#z"
	if err := client.Rebuild(weird); err != nil {
		t.Fatal(err)
	}
	if seenGame != weird {
		t.Fatalf("server saw game %q, want %q", seenGame, weird)
	}
	if _, err := url.ParseRequestURI(client.endpoint("/v1/rebuild", url.Values{"game": {weird}})); err != nil {
		t.Fatalf("endpoint builds an invalid URL: %v", err)
	}
}

// TestClientTimeoutConfigured pins the default-client hardening: the
// request bound lives on RetryPolicy.Timeout (per attempt, applied as a
// context deadline) rather than a hardcoded http.Client.Timeout, so
// callers can tune it without swapping transports.
func TestClientTimeoutConfigured(t *testing.T) {
	c := NewClient("http://127.0.0.1:0")
	if c.HTTP == http.DefaultClient {
		t.Fatal("client uses http.DefaultClient (shared mutable state)")
	}
	if c.HTTP.Timeout != 0 {
		t.Fatalf("http.Client.Timeout %v, want 0 (bound moved to RetryPolicy)", c.HTTP.Timeout)
	}
	if c.Retry.Timeout != DefaultClientTimeout {
		t.Fatalf("Retry.Timeout %v, want %v", c.Retry.Timeout, DefaultClientTimeout)
	}
}

// TestClientPolicyTimeoutEnforced proves the per-attempt deadline
// actually cancels a stalled server instead of hanging the upload.
func TestClientPolicyTimeoutEnforced(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer srv.Close()
	defer close(release)

	c := NewClient(srv.URL)
	c.Retry = RetryPolicy{MaxAttempts: 1, Timeout: 50 * time.Millisecond}
	start := time.Now()
	err := c.Rebuild("Colorphun")
	if err == nil {
		t.Fatal("expected timeout error from stalled server")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout not enforced: call took %v", elapsed)
	}
}

// TestHealthzEndpoint pins the SLO verdict surface: a fresh service is
// healthy (200, status ok), and a flood of bad uploads pushes the
// ingest error ratio over threshold and flips it to 503 degraded.
func TestHealthzEndpoint(t *testing.T) {
	_, srv := testServer(t)

	resp, body := get(t, srv.URL+"/v1/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh healthz status %d, want 200: %s", resp.StatusCode, body)
	}
	var hz HealthzReply
	if err := json.Unmarshal([]byte(body), &hz); err != nil {
		t.Fatalf("healthz not JSON: %v", err)
	}
	if hz.Status != "ok" {
		t.Fatalf("fresh status %q, want ok", hz.Status)
	}
	if len(hz.Checks) == 0 {
		t.Fatal("healthz reported no checks")
	}

	// 25 corrupt uploads: error ratio 1.0 on an ingest endpoint, well
	// past the 10% budget and the 20-request judgment floor.
	for i := 0; i < 25; i++ {
		post(t, srv.URL+"/v1/upload-batch?game=Colorphun",
			bytes.NewReader([]byte("corrupt")))
	}
	resp, body = get(t, srv.URL+"/v1/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded healthz status %d, want 503: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal([]byte(body), &hz); err != nil {
		t.Fatalf("degraded healthz not JSON: %v", err)
	}
	if hz.Status != "degraded" {
		t.Fatalf("status %q, want degraded", hz.Status)
	}
	failed := false
	for _, c := range hz.Checks {
		if !c.OK {
			failed = true
		}
	}
	if !failed {
		t.Fatal("degraded reply lists no failing check")
	}
}

// TestTracePropagation is the tentpole's cross-process assertion: an
// upload carrying X-Snip-Trace must surface a cloud-side ingest span
// under the SAME trace ID, parent-linked to the device-side span, both
// via Spans() and the /v1/tracez endpoint.
func TestTracePropagation(t *testing.T) {
	svc, srv := testServer(t)
	client := NewClient(srv.URL)

	dev := record(t, "Colorphun", 0xBEEF)
	sc := obs.Root(obs.NewTraceID(0xBEEF, obs.HashName("Colorphun/test")))
	sessions := []trace.SessionEvents{{Seed: 0xBEEF, Log: dev.EventLog}}
	if _, err := client.UploadBatchControlled("Colorphun", sessions, sc, nil); err != nil {
		t.Fatal(err)
	}

	var ingest *obs.Span
	for _, sp := range svc.Spans().Spans() {
		if sp.Trace == sc.Trace {
			s := sp
			ingest = &s
		}
	}
	if ingest == nil {
		t.Fatalf("no cloud span recorded under device trace %s", sc.Trace)
	}
	if ingest.Service != "cloud" {
		t.Errorf("ingest span service %q, want cloud", ingest.Service)
	}
	if ingest.Parent != sc.Span {
		t.Errorf("ingest span parent %s, want device span %s", ingest.Parent, sc.Span)
	}
	if ingest.Name != "cloud.upload-batch" {
		t.Errorf("ingest span name %q, want cloud.upload-batch", ingest.Name)
	}

	// The same span is queryable over the wire, filtered by trace ID.
	resp, body := get(t, srv.URL+"/v1/tracez?trace="+sc.Trace.String())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tracez status %d", resp.StatusCode)
	}
	var reply TracezReply
	if err := json.Unmarshal([]byte(body), &reply); err != nil {
		t.Fatalf("tracez not JSON: %v\n%s", err, body)
	}
	if len(reply.Spans) != 1 || reply.Spans[0].Trace != sc.Trace {
		t.Fatalf("tracez filter returned %d spans for trace %s: %s", len(reply.Spans), sc.Trace, body)
	}
}

// TestUntracedRequestsRecordNoSpans: without the header the service
// must not invent trace IDs — the span ring stays empty.
func TestUntracedRequestsRecordNoSpans(t *testing.T) {
	svc, srv := testServer(t)
	client := NewClient(srv.URL)
	uploadSession(t, client, "Colorphun", 7, record(t, "Colorphun", 7).EventLog)
	if n := svc.Spans().Len(); n != 0 {
		t.Fatalf("untraced upload recorded %d spans, want 0", n)
	}
}

// TestClientRetryLogging pins satellite 2: transient 5xx failures are
// logged via slog with the upload's trace ID, and the retry count is
// reported back on the BatchResult.
func TestClientRetryLogging(t *testing.T) {
	var calls int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls <= 2 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	var logBuf bytes.Buffer
	c := NewClient(srv.URL)
	c.Retry = RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond}
	c.SetLogger(slog.New(slog.NewTextHandler(&logBuf, nil)))

	sc := obs.Root(obs.NewTraceID(9, obs.HashName("retrylog")))
	dev := record(t, "Colorphun", 9)
	br, err := c.UploadBatchControlled("Colorphun",
		[]trace.SessionEvents{{Seed: 9, Log: dev.EventLog}}, sc, nil)
	if err != nil {
		t.Fatalf("upload should succeed on 3rd attempt: %v", err)
	}
	if br.Retries != 2 {
		t.Errorf("Retries = %d, want 2", br.Retries)
	}
	logs := logBuf.String()
	if !strings.Contains(logs, "cloud client retry") {
		t.Errorf("retry not logged:\n%s", logs)
	}
	if !strings.Contains(logs, sc.Trace.String()) {
		t.Errorf("retry log missing trace ID %s:\n%s", sc.Trace, logs)
	}
	if got := strings.Count(logs, "cloud client retry"); got != 2 {
		t.Errorf("retry logged %d times, want 2", got)
	}
}

// TestPprofWired: the profiling endpoints answer on the service mux.
func TestPprofWired(t *testing.T) {
	_, srv := testServer(t)
	resp, body := get(t, srv.URL+"/debug/pprof/")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status %d", resp.StatusCode)
	}
	if !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index body missing profile listing:\n%.200s", body)
	}
}
