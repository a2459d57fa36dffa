package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/load"
	"repro/internal/route"
	"repro/internal/rpc"
	"repro/internal/serve"
)

// backend is one real engine backend serving its HTTP surface and an
// advertised VS3R listener — what `vs3d -rpc :0` boots, assembled in-process
// so tests can wrap the rpc handler, read its gauges, and kill it.
type backend struct {
	hts       *httptest.Server
	rsrv      *rpc.Server
	rln       net.Listener
	closeOnce sync.Once
}

// startBackend boots a real backend with the default test config.
func startBackend(t *testing.T, id string) *backend {
	return startRPCBackend(t, serve.Config{ID: id}, nil)
}

// startRPCBackend boots a real backend; wrap, when non-nil, wraps its rpc
// handler.
func startRPCBackend(t *testing.T, cfg serve.Config, wrap func(rpc.Handler) rpc.Handler) *backend {
	t.Helper()
	if cfg.Pool == 0 {
		cfg.Pool = 2
	}
	srv := serve.New(cfg)
	var h rpc.Handler = srv
	if wrap != nil {
		h = wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b := &backend{hts: httptest.NewServer(srv.Handler()), rsrv: rpc.NewServer(h, rpc.ServerConfig{}), rln: ln}
	go func() { _ = b.rsrv.Serve(ln) }()
	srv.AdvertiseRPC(ln.Addr().String())
	srv.SetRPCStats(b.rsrv.Stats)
	t.Cleanup(b.close)
	return b
}

// close kills the backend: both surfaces stop accepting and every open
// connection is cut. Safe to call more than once.
func (b *backend) close() {
	b.closeOnce.Do(func() {
		b.hts.CloseClientConnections()
		b.hts.Close()
		b.rln.Close()
		b.rsrv.Close()
	})
}

// startRouter boots the real vs3router daemon (the same run() main drives)
// on an ephemeral port and returns its base URL plus a shutdown func.
func startRouter(t *testing.T, cfg route.Config) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 100 * time.Millisecond
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, ln, cfg, log.New(io.Discard, "", 0)) }()
	base := "http://" + ln.Addr().String()
	waitHealthy(t, base)
	stop := func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("router exited with %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("router did not shut down")
		}
	}
	return base, stop
}

func waitHealthy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("never became healthy: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func verifyVia(t *testing.T, base, spec, method string) (*http.Response, serve.VerifyResponse) {
	t.Helper()
	body, _ := json.Marshal(serve.VerifyRequest{Spec: spec, Method: method})
	resp, err := http.Post(base+"/v1/verify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vr serve.VerifyResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&vr); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp, vr
}

// TestClusterSmoke is `make cluster-smoke`: the real router daemon over TCP
// in front of two real engine backends — affinity, batch split/merge,
// failover after a backend death, stats, and clean shutdown.
func TestClusterSmoke(t *testing.T) {
	b1 := startBackend(t, "smoke-1")
	b2 := startBackend(t, "smoke-2")
	base, stop := startRouter(t, route.Config{Backends: []string{b1.hts.URL, b2.hts.URL}})
	defer stop()
	waitProto(t, base, map[string]string{b1.hts.URL: "rpc", b2.hts.URL: "rpc"})

	corpus := load.SmokeCorpus()

	// Affinity: repeats of the same spec land on the same backend, and the
	// backend proves it (second hit warm).
	owners := map[string]string{}
	for round := 0; round < 2; round++ {
		for _, item := range corpus {
			resp, vr := verifyVia(t, base, item.Spec, item.Method)
			if resp.StatusCode != http.StatusOK || !vr.Proved {
				t.Fatalf("%s: status=%d proved=%v", item.Name, resp.StatusCode, vr.Proved)
			}
			backend := resp.Header.Get("X-VS3-Backend")
			if backend == "" {
				t.Fatal("no X-VS3-Backend header through the router")
			}
			if prev, ok := owners[item.Name]; ok && prev != backend {
				t.Fatalf("%s routed to %s then %s — affinity broken", item.Name, prev, backend)
			}
			owners[item.Name] = backend
			if k := resp.Header.Get("X-VS3-Problem-Key"); k != serve.ProblemKey(item.Spec) {
				t.Errorf("%s: problem key %q", item.Name, k)
			}
		}
	}

	// Batch through the router: every index answered OK exactly once.
	var items []serve.VerifyRequest
	for _, it := range corpus {
		items = append(items, serve.VerifyRequest{Spec: it.Spec, Method: it.Method})
		items = append(items, serve.VerifyRequest{Spec: it.Spec, Method: "gfp"})
	}
	body, _ := json.Marshal(serve.BatchRequest{Items: items})
	resp, err := http.Post(base+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var res serve.BatchResult
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("bad batch line %q: %v", sc.Text(), err)
		}
		if seen[res.Index] || !res.OK || res.Verify == nil || !res.Verify.Proved {
			t.Fatalf("batch item %d: %+v", res.Index, res)
		}
		seen[res.Index] = true
	}
	resp.Body.Close()
	if len(seen) != len(items) {
		t.Fatalf("batch answered %d of %d items", len(seen), len(items))
	}

	// Failover: kill one backend; every spec must still verify (rehashed to
	// the survivor) with no client-visible error.
	b1.close()
	for _, item := range corpus {
		resp, vr := verifyVia(t, base, item.Spec, item.Method)
		if resp.StatusCode != http.StatusOK || !vr.Proved {
			t.Fatalf("%s after backend death: status=%d proved=%v", item.Name, resp.StatusCode, vr.Proved)
		}
		if got := resp.Header.Get("X-VS3-Backend"); got != "smoke-2" {
			t.Fatalf("%s served by %q after smoke-1 died", item.Name, got)
		}
	}

	// Router stats: per-backend rows with identity, and the health sweep
	// (or passive failover marking) takes the dead backend out of rotation.
	var stats struct {
		Requests  int64 `json:"requests_proxied"`
		Failovers int64 `json:"failovers"`
		Backends  []struct {
			ServerID string `json:"server_id"`
			Healthy  bool   `json:"healthy"`
			Routed   int64  `json:"routed"`
		} `json:"backends"`
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		sresp, err := http.Get(base + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		stats.Backends = nil
		if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
			t.Fatal(err)
		}
		sresp.Body.Close()
		alive := 0
		for _, b := range stats.Backends {
			if b.Healthy {
				alive++
			}
		}
		if alive == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dead backend never left rotation: %+v", stats)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if stats.Requests == 0 || len(stats.Backends) != 2 {
		t.Fatalf("router stats: %+v", stats)
	}
}

// benchArm runs the default corpus against base and returns the report.
func benchArm(t *testing.T, base string, requests int) load.Result {
	t.Helper()
	res, err := load.Run(context.Background(), load.Options{
		BaseURL:     base,
		Concurrency: 4,
		Requests:    requests,
		ClientKey:   "bench",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Incorrect != 0 || res.Errors != 0 || res.Aborted != 0 || res.Shed != 0 {
		t.Fatalf("arm %s degraded: %+v", base, res)
	}
	return res
}

// TestClusterBench is the routing gate. Two arms over the same mixed corpus
// — one backend alone, and two backends behind affinity routing — with
// verdicts identical everywhere (benchArm fails the test on any wrong
// verdict).
func TestClusterBench(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster benchmark is not a -short test")
	}
	requests := 3 * len(load.DefaultCorpus())

	// Arm 1: single node, no router — the verdict baseline.
	single := startBackend(t, "bench-single")
	one := benchArm(t, single.hts.URL, requests)

	// Arm 2: two fresh backends behind affinity routing.
	a1, a2 := startBackend(t, "bench-aff-1"), startBackend(t, "bench-aff-2")
	affBase, affStop := startRouter(t, route.Config{
		Backends: []string{a1.hts.URL, a2.hts.URL}, Policy: route.Affinity,
	})
	waitProto(t, affBase, map[string]string{a1.hts.URL: "rpc", a2.hts.URL: "rpc"})
	aff := benchArm(t, affBase, requests)
	affStop()

	t.Logf("single:   %d queries, hit ratio %.3f, p95 %.1fms", one.SMTQueries, one.CacheHitRatio, one.P95MS)
	t.Logf("affinity: %d queries, hit ratio %.3f, p95 %.1fms", aff.SMTQueries, aff.CacheHitRatio, aff.P95MS)
}
