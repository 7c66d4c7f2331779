package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"snip/internal/cloud"
	"snip/internal/pfi"
)

// cloudShards is the profiler tier's shard count: two, so the router and
// per-shard queues are exercised without more shard workers than CPUs.
const cloudShards = 2

// loopCloud is an in-process sharded cloud profiler served over loopback
// HTTP, with a client whose pool holds at most as many keep-alive
// connections as the benchmark has workers.
type loopCloud struct {
	svc    *cloud.Service
	srv    *http.Server
	client *cloud.Client
	served chan struct{} // closed when Serve returns
}

func startCloud(workers int) (*loopCloud, error) {
	cfg := pfi.DefaultConfig()
	cfg.Workers = workers
	svc := cloud.NewServiceWithOptions(cfg, cloud.ServiceOptions{Shards: cloudShards})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	c := &loopCloud{
		svc:    svc,
		srv:    &http.Server{Handler: svc.Handler()},
		client: cloud.NewClient("http://" + ln.Addr().String()),
		served: make(chan struct{}),
	}
	c.client.HTTP = &http.Client{Transport: &http.Transport{
		MaxIdleConns:        workers,
		MaxIdleConnsPerHost: workers,
		MaxConnsPerHost:     workers,
		IdleConnTimeout:     90 * time.Second,
	}}
	go func() {
		defer close(c.served)
		_ = c.srv.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return c, nil
}

// close stops the server and waits for it, drops the client's idle
// connections and stops the shard workers. Every request the benchmark
// makes has returned by then: its loops are closed.
func (c *loopCloud) close() {
	_ = c.srv.Close() // the listener's close error is of no use here
	<-c.served
	c.client.HTTP.CloseIdleConnections()
	c.svc.Close()
}

func (c *loopCloud) get(path string, q url.Values) ([]byte, error) {
	u := c.client.BaseURL + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	resp, err := c.client.HTTP.Get(u)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

// records reads a game's accumulated profile record count from
// GET /v1/status ("game=G records=N ...").
func (c *loopCloud) records(game string) (int, error) {
	body, err := c.get("/v1/status", url.Values{"game": {game}})
	if err != nil {
		return 0, err
	}
	for _, f := range strings.Fields(string(body)) {
		if v, ok := strings.CutPrefix(f, "records="); ok {
			return strconv.Atoi(v)
		}
	}
	return 0, fmt.Errorf("status for %s has no record count: %q", game, body)
}

// overloadView is the part of GET /v1/overloadz the benchmark checks:
// the shed signal and each priority class's conservation ledger.
type overloadView struct {
	Occupancy float64 `json:"occupancy"`
	ShedRatio float64 `json:"shed_ratio"`
	Classes   []struct {
		Class    string `json:"class"`
		Offered  int64  `json:"offered"`
		Accepted int64  `json:"accepted"`
		Shed     int64  `json:"shed"`
		Dropped  int64  `json:"dropped"`
	} `json:"classes"`
}

func (c *loopCloud) overloadz() (overloadView, error) {
	var v overloadView
	body, err := c.get("/v1/overloadz", nil)
	if err != nil {
		return v, err
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return v, fmt.Errorf("decode overloadz: %w", err)
	}
	return v, nil
}

// checkLedger checks the cloud's admission ledger after a pass: every
// class conserves offered = accepted + shed + dropped, and nothing was
// shed or dropped, since the benchmark's closed loops never overload it.
func (r *run) checkLedger(c *loopCloud, what string) {
	v, err := c.overloadz()
	if !r.op(err) {
		return
	}
	for _, cl := range v.Classes {
		r.check(cl.Offered == cl.Accepted+cl.Shed+cl.Dropped,
			"%s: class %s offered %d != accepted %d + shed %d + dropped %d",
			what, cl.Class, cl.Offered, cl.Accepted, cl.Shed, cl.Dropped)
		r.check(cl.Shed == 0 && cl.Dropped == 0, "%s: class %s shed %d, dropped %d", what, cl.Class, cl.Shed, cl.Dropped)
	}
}

// serverTime reads an endpoint's summed request handling time and request
// count from the request_ns histogram of GET /v1/metrics.
func (c *loopCloud) serverTime(endpoint string) (sumNS, count int64, err error) {
	body, err := c.get("/v1/metrics", nil)
	if err != nil {
		return 0, 0, err
	}
	label := `{endpoint="` + endpoint + `"}`
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		switch name {
		case "snip_cloud_request_ns_sum" + label:
			sumNS, err = strconv.ParseInt(val, 10, 64)
		case "snip_cloud_request_ns_count" + label:
			count, err = strconv.ParseInt(val, 10, 64)
		}
		if err != nil {
			return 0, 0, fmt.Errorf("metrics line %q: %w", sc.Text(), err)
		}
	}
	return sumNS, count, sc.Err()
}
