package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/load"
	"repro/internal/route"
	"repro/internal/rpc"
	"repro/internal/serve"
)

// delayRPC stalls every rpc dispatch, emulating a deeply queued backend. A
// cancel during the stall is counted and answered 499 without touching the
// engine.
type delayRPC struct {
	inner    rpc.Handler
	delay    time.Duration
	canceled atomic.Int64
}

func (d *delayRPC) ServeRPC(ctx context.Context, req rpc.Request) rpc.Response {
	select {
	case <-time.After(d.delay):
	case <-ctx.Done():
		d.canceled.Add(1)
		return rpc.Response{Status: 499, Body: []byte("{\"error\":\"canceled before start\"}\n")}
	}
	return d.inner.ServeRPC(ctx, req)
}

// routerStats is the slice of the router's /v1/stats body the smoke test
// reads.
type routerStats struct {
	HedgeFired int64 `json:"hedge_fired"`
	HedgeWon   int64 `json:"hedge_won"`
	RPCConns   int64 `json:"rpc_conns"`
	Backends   []struct {
		URL     string `json:"url"`
		Proto   string `json:"proto"`
		Healthy bool   `json:"healthy"`
	} `json:"backends"`
}

func fetchRouterStats(t *testing.T, base string) routerStats {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st routerStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitProto blocks until the router reports the wanted proto ("rpc" or
// "none") for every listed backend (the health sweep has to discover
// X-VS3-RPC first).
func waitProto(t *testing.T, base string, want map[string]string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := fetchRouterStats(t, base)
		ok := true
		for _, b := range st.Backends {
			if w, listed := want[b.URL]; listed && b.Proto != w {
				ok = false
			}
		}
		if ok && len(st.Backends) == len(want) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("router never reached wanted protos %v: %+v", want, st.Backends)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRPCSmoke is `make rpc-smoke`: the VS3R router-to-backend wire end to
// end over real TCP daemons, driven through the router's HTTP edge (its
// only client edge) — single verifies and batch fan-out over rpc backends,
// a backend that does not advertise rpc reported not live and sent no
// traffic, a client's mid-flight disconnect reaching the backend as a
// stream cancel, and hedging with counters on /metrics.
func TestRPCSmoke(t *testing.T) {
	corpus := load.SmokeCorpus()

	// --- Fleet 1: two rpc backends + one HTTP-only backend. ---
	b1 := startRPCBackend(t, serve.Config{ID: "rpc-1"}, nil)
	b2 := startRPCBackend(t, serve.Config{ID: "rpc-2"}, nil)
	b3 := httptest.NewServer(serve.New(serve.Config{ID: "http-only", Pool: 2}).Handler())
	t.Cleanup(b3.Close)
	urls := []string{b1.hts.URL, b2.hts.URL, b3.URL}
	base, stop := startRouter(t, route.Config{Backends: urls})
	defer stop()
	waitProto(t, base, map[string]string{b1.hts.URL: "rpc", b2.hts.URL: "rpc", b3.URL: "none"})

	// Single verifies through the router: correct verdicts, problem keys,
	// and an rpc backend's identity on every response.
	for _, item := range corpus {
		resp, vr := verifyVia(t, base, item.Spec, item.Method)
		if resp.StatusCode != http.StatusOK || !vr.Proved {
			t.Fatalf("%s through the router: status=%d proved=%v", item.Name, resp.StatusCode, vr.Proved)
		}
		if k := resp.Header.Get("X-VS3-Problem-Key"); k != serve.ProblemKey(item.Spec) {
			t.Fatalf("%s: problem key %q", item.Name, k)
		}
		if id := resp.Header.Get("X-VS3-Backend"); id != "rpc-1" && id != "rpc-2" {
			t.Fatalf("%s: backend identity %q, want an rpc backend", item.Name, id)
		}
	}

	// The HTTP-only backend is not live: specs its ring slice owns verify on
	// the rpc backends, and it is sent nothing. A probe router over the same
	// ring (placement depends only on backend order and weights) picks the
	// spec variants — trailing newlines vary the problem key — it owns.
	probe, err := route.New(route.Config{Backends: urls, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	owned := 0
	for i := 0; owned < 3; i++ {
		if i > 10_000 {
			t.Fatal("no spec variant owned by the HTTP-only backend")
		}
		spec := corpus[0].Spec + strings.Repeat("\n", i)
		if probe.Owner(serve.ProblemKey(spec)) != b3.URL {
			continue
		}
		owned++
		resp, vr := verifyVia(t, base, spec, "lfp")
		if id := resp.Header.Get("X-VS3-Backend"); resp.StatusCode != http.StatusOK || !vr.Proved || (id != "rpc-1" && id != "rpc-2") {
			t.Fatalf("spec owned by the HTTP-only backend: status=%d proved=%v backend=%q", resp.StatusCode, vr.Proved, id)
		}
	}

	// Batch through the router: every item takes the same per-item path
	// over the rpc backends.
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
	if st := fetchRouterStats(t, base); st.RPCConns == 0 {
		t.Error("router reports zero open rpc connections after rpc traffic")
	}
	for _, row := range fetchRouterStats(t, base).Backends {
		if row.URL == b3.URL && row.Healthy {
			t.Error("router reports the HTTP-only backend live")
		}
	}
	if n := probeStats(t, b3.URL).Requests; n != 0 {
		t.Errorf("HTTP-only backend served %d requests, want none", n)
	}

	// --- Fleet 2: cancellation. A client abandoning its HTTP request must
	// reach the stalled backend as a stream cancel, leaving no open stream. ---
	slow := &delayRPC{delay: 30 * time.Second}
	bSlow := startRPCBackend(t, serve.Config{ID: "stalled"}, func(h rpc.Handler) rpc.Handler { slow.inner = h; return slow })
	cbase, cstop := startRouter(t, route.Config{Backends: []string{bSlow.hts.URL}})
	defer cstop()
	waitProto(t, cbase, map[string]string{bSlow.hts.URL: "rpc"})

	cctx, ccancel := context.WithCancel(context.Background())
	callErr := make(chan error, 1)
	go func() {
		vb, _ := json.Marshal(serve.VerifyRequest{Spec: corpus[0].Spec, Method: "lfp"})
		req, err := http.NewRequestWithContext(cctx, http.MethodPost, cbase+"/v1/verify", bytes.NewReader(vb))
		if err != nil {
			callErr <- err
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		callErr <- err
	}()
	time.Sleep(100 * time.Millisecond)
	ccancel()
	select {
	case err := <-callErr:
		if err == nil {
			t.Fatal("cancelled request returned no error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled request never returned")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, streams, _, _ := bSlow.rsrv.Stats()
		if slow.canceled.Load() >= 1 && streams == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancel never drained the backend: canceled=%d streams=%d", slow.canceled.Load(), streams)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// --- Fleet 3: hedging. With the owner stalled, the ring successor must
	// answer and the counters must show the race. ---
	slow2 := &delayRPC{delay: 5 * time.Second}
	bSlow2 := startRPCBackend(t, serve.Config{ID: "hedge-slow"}, func(h rpc.Handler) rpc.Handler { slow2.inner = h; return slow2 })
	bFast := startRPCBackend(t, serve.Config{ID: "hedge-fast"}, nil)
	hbase, hstop := startRouter(t, route.Config{
		Backends: []string{bSlow2.hts.URL, bFast.hts.URL},
		Hedge:    true,
		HedgeMin: 5 * time.Millisecond,
		HedgeMax: 50 * time.Millisecond,
	})
	defer hstop()
	waitProto(t, hbase, map[string]string{bSlow2.hts.URL: "rpc", bFast.hts.URL: "rpc"})

	hedged := false
	spec := corpus[1].Spec
	for i := 0; i < 50 && !hedged; i++ {
		vb, _ := json.Marshal(serve.VerifyRequest{Spec: spec, Method: "lfp", TimeoutMS: 30_000})
		hresp, err := http.Post(hbase+"/v1/verify", "application/json", bytes.NewReader(vb))
		if err != nil {
			t.Fatal(err)
		}
		var vr serve.VerifyResponse
		if err := json.NewDecoder(hresp.Body).Decode(&vr); err != nil {
			t.Fatal(err)
		}
		hresp.Body.Close()
		if hresp.StatusCode != http.StatusOK || !vr.Proved {
			t.Fatalf("hedge probe %d: status=%d proved=%v", i, hresp.StatusCode, vr.Proved)
		}
		st := fetchRouterStats(t, hbase)
		if st.HedgeWon >= 1 {
			if got := hresp.Header.Get("X-VS3-Backend"); got != "hedge-fast" {
				t.Fatalf("hedged winner was %q, want hedge-fast", got)
			}
			hedged = true
		}
		spec = corpus[1].Spec + strings.Repeat("\n", i+1)
	}
	if !hedged {
		t.Fatal("no probe ever hedged onto the fast backend")
	}
	mresp, err := http.Get(hbase + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbuf := new(bytes.Buffer)
	_, _ = mbuf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{"vs3router_hedge_fired_total", "vs3router_hedge_won_total", "vs3router_rpc_conns"} {
		if !strings.Contains(mbuf.String(), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}
