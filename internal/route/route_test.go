package route

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rpc"
	"repro/internal/serve"
)

// stubBackend is a scripted vs3d stand-in speaking just enough of the two
// planes for router tests — /healthz and /v1/stats over HTTP, verify and
// digest calls over a real VS3R listener — with no engine, so tests are fast
// and failure modes are scriptable.
type stubBackend struct {
	id     string
	digest string // solved-outcome digest answered for rpc.KindDigest
	gen    uint64 // digest generation, advertised as X-VS3-Store-Gen when > 0
	// advertise overrides the X-VS3-RPC value: "" advertises the stub's own
	// listener, "-" advertises nothing (an HTTP-only backend).
	advertise string

	ts     *httptest.Server
	rpcLn  net.Listener
	rsrv   *rpc.Server
	served atomic.Int64
	dead   atomic.Bool
	// answerCalls > 0 answers that many verify calls, then kills the stub:
	// every later call fails at the transport level.
	answerCalls atomic.Int64
	calls       atomic.Int64
	answered    chan struct{} // closed once answerCalls calls have returned
}

func newStubBackend(t *testing.T, id string) *stubBackend {
	return startStub(t, &stubBackend{id: id})
}

// startStub serves b's HTTP control plane and its VS3R listener.
func startStub(t *testing.T, b *stubBackend) *stubBackend {
	t.Helper()
	b.answered = make(chan struct{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b.rpcLn = ln
	b.rsrv = rpc.NewServer(b, rpc.ServerConfig{})
	go func() { _ = b.rsrv.Serve(ln) }()
	adv := b.advertise
	if adv == "" {
		adv = ln.Addr().String()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-VS3-Backend", b.id)
		if adv != "-" {
			w.Header().Set("X-VS3-RPC", adv)
		}
		if b.gen > 0 {
			w.Header().Set("X-VS3-Store-Gen", fmt.Sprint(b.gen))
		}
		if b.dead.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]int64{
			"requests": b.served.Load(), "smt_queries": 10, "smt_cache_hits": 5,
		})
	})
	b.ts = httptest.NewServer(mux)
	t.Cleanup(func() { b.kill(); b.ts.Close() })
	return b
}

// kill takes the stub down at the transport level: its VS3R listener and
// every open connection close (in-flight calls see a cut connection, new
// dials are refused) and /healthz answers 503.
func (b *stubBackend) kill() {
	b.dead.Store(true)
	b.rpcLn.Close()
	b.rsrv.Close()
}

// ServeRPC answers verify calls with a proved verdict naming the stub and
// echoing the fair-queue client key, and digest calls with the stub's
// digest.
func (b *stubBackend) ServeRPC(ctx context.Context, req rpc.Request) rpc.Response {
	if req.Kind == rpc.KindDigest {
		body, _ := json.Marshal(serve.DigestResponse{Digest: b.digest, Gen: b.gen})
		return rpc.Response{Status: http.StatusOK, Backend: b.id, Body: body}
	}
	if n := b.answerCalls.Load(); n > 0 {
		if k := b.calls.Add(1); k > n {
			// Let the answered calls' responses reach the wire, then cut
			// every connection; this call's answer is never written.
			<-b.answered
			time.Sleep(20 * time.Millisecond)
			b.kill()
			<-ctx.Done()
			return rpc.Response{Status: 499}
		} else if k == n {
			defer close(b.answered)
		}
	}
	b.served.Add(1)
	body, _ := json.Marshal(serve.VerifyResponse{
		Method: "LFP", Proved: true,
		Invariants: map[string]string{"by": b.id, "client": req.Client},
	})
	return rpc.Response{Status: http.StatusOK, ProblemKey: serve.ProblemKey(req.Spec), Backend: b.id, Body: body}
}

// newTestRouter fronts backends with a Router and its HTTP handler, and
// waits until the health sweep has made every backend live over VS3R.
func newTestRouter(t *testing.T, cfg Config, backends ...*stubBackend) (*Router, *httptest.Server) {
	for _, b := range backends {
		cfg.Backends = append(cfg.Backends, b.ts.URL)
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 50 * time.Millisecond
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	ts := httptest.NewServer(r.Handler())
	t.Cleanup(ts.Close)
	for i := range backends {
		waitLive(t, r, i)
	}
	return r, ts
}

// waitLive blocks until backend i is live: healthy with a VS3R client.
func waitLive(t *testing.T, r *Router, i int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !r.backends[i].healthy.Load() || r.backends[i].rpcClient() == nil {
		if time.Now().After(deadline) {
			t.Fatalf("backend %d never went live over VS3R", i)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func postVerify(t *testing.T, url, spec string) (*http.Response, []byte) {
	t.Helper()
	body, _ := json.Marshal(serve.VerifyRequest{Spec: spec, Method: "lfp"})
	resp, err := http.Post(url+"/v1/verify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	out.ReadFrom(resp.Body)
	return resp, out.Bytes()
}

// TestAffinityRouting is the tentpole property: the same spec always lands
// on the same backend, and distinct specs use more than one backend.
func TestAffinityRouting(t *testing.T) {
	b1 := newStubBackend(t, "backend-1")
	b2 := newStubBackend(t, "backend-2")
	_, ts := newTestRouter(t, Config{}, b1, b2)

	specs := make([]string, 16)
	for i := range specs {
		specs[i] = fmt.Sprintf("program P%d() { skip; }", i)
	}
	owner := map[string]string{}
	for round := 0; round < 3; round++ {
		for _, spec := range specs {
			resp, body := postVerify(t, ts.URL, spec)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			got := resp.Header.Get("X-VS3-Backend")
			if got == "" {
				t.Fatal("response missing X-VS3-Backend")
			}
			if want, ok := owner[spec]; ok && want != got {
				t.Fatalf("spec routed to %s then %s — affinity broken", want, got)
			}
			owner[spec] = got
			if k := resp.Header.Get("X-VS3-Problem-Key"); k != serve.ProblemKey(spec) {
				t.Errorf("problem key header %q, want %q", k, serve.ProblemKey(spec))
			}
		}
	}
	used := map[string]bool{}
	for _, o := range owner {
		used[o] = true
	}
	if len(used) < 2 {
		t.Errorf("16 distinct specs all routed to one backend; ring not spreading")
	}
}

// TestClientKeyPropagated checks the router forwards the originating
// client's fair-queue key, so backends schedule by end client.
func TestClientKeyPropagated(t *testing.T) {
	b1 := newStubBackend(t, "b1")
	_, ts := newTestRouter(t, Config{}, b1)
	body, _ := json.Marshal(serve.VerifyRequest{Spec: "program P() { skip; }"})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/verify", bytes.NewReader(body))
	req.Header.Set("X-VS3-Client", "alice")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vr serve.VerifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&vr); err != nil {
		t.Fatal(err)
	}
	if seen := vr.Invariants["client"]; seen != "alice" {
		t.Errorf("backend saw client key %q, want alice", seen)
	}
}

// TestFailoverOnDeadBackend kills one backend outright: every key it owned
// must rehash to the survivor (deterministically), failovers must be
// counted, and recovery is observed once the backend returns.
func TestFailoverOnDeadBackend(t *testing.T) {
	b1 := newStubBackend(t, "backend-1")
	b2 := newStubBackend(t, "backend-2")
	r, ts := newTestRouter(t, Config{}, b1, b2)

	// Find a spec owned by b1 (by URL index) so we can kill its owner.
	var victim string
	for i := 0; ; i++ {
		spec := fmt.Sprintf("program V%d() { skip; }", i)
		if r.ring.owner(serve.ProblemKey(spec)) == 0 {
			victim = spec
			break
		}
	}
	resp, _ := postVerify(t, ts.URL, victim)
	firstOwner := resp.Header.Get("X-VS3-Backend")
	if firstOwner != "backend-1" {
		t.Fatalf("victim spec served by %s, expected backend-1", firstOwner)
	}

	b1.kill()

	for i := 0; i < 3; i++ {
		resp, body := postVerify(t, ts.URL, victim)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request after backend death: status %d: %s", resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-VS3-Backend"); got != "backend-2" {
			t.Fatalf("failover routed to %q, want backend-2", got)
		}
	}

	sr := routerStats(t, ts.URL)
	if sr.Failovers < 1 {
		t.Errorf("failovers = %d, want >= 1", sr.Failovers)
	}
	var deadRow *BackendStats
	for i := range sr.Backends {
		if sr.Backends[i].URL == b1.ts.URL {
			deadRow = &sr.Backends[i]
		}
	}
	if deadRow == nil || deadRow.Healthy {
		t.Errorf("dead backend still marked healthy: %+v", sr.Backends)
	}
	if deadRow != nil && deadRow.Failovers < 1 {
		t.Errorf("per-backend failovers = %d, want >= 1", deadRow.Failovers)
	}
}

// TestBatchSplitMerge pushes one batch with keys owned by both backends and
// checks the merged stream: every original index exactly once, results
// produced by the affinity owner of each item.
func TestBatchSplitMerge(t *testing.T) {
	b1 := newStubBackend(t, "backend-1")
	b2 := newStubBackend(t, "backend-2")
	r, ts := newTestRouter(t, Config{}, b1, b2)

	var items []serve.VerifyRequest
	for i := 0; i < 12; i++ {
		items = append(items, serve.VerifyRequest{Spec: fmt.Sprintf("program B%d() { skip; }", i)})
	}
	results := postBatch(t, ts.URL, serve.BatchRequest{Items: items})
	if len(results) != len(items) {
		t.Fatalf("%d results for %d items", len(results), len(items))
	}
	seen := map[int]bool{}
	for _, res := range results {
		if seen[res.Index] {
			t.Fatalf("duplicate index %d", res.Index)
		}
		seen[res.Index] = true
		if !res.OK || res.Verify == nil {
			t.Fatalf("item %d failed: %+v", res.Index, res)
		}
		wantOwner := []string{"backend-1", "backend-2"}[r.ring.owner(serve.ProblemKey(items[res.Index].Spec))]
		if res.Verify.Invariants["by"] != wantOwner {
			t.Errorf("item %d served by %s, affinity owner is %s", res.Index, res.Verify.Invariants["by"], wantOwner)
		}
	}
	if b1.served.Load() == 0 || b2.served.Load() == 0 {
		t.Errorf("batch not split: served %d/%d", b1.served.Load(), b2.served.Load())
	}
}

// TestBatchFailoverMidStream cuts one backend at the transport level after
// it has answered two calls of its group: the unanswered items must be
// re-sent to the survivor and every index still answered exactly once.
func TestBatchFailoverMidStream(t *testing.T) {
	b1 := newStubBackend(t, "backend-1")
	b2 := newStubBackend(t, "backend-2")
	r, ts := newTestRouter(t, Config{}, b1, b2)

	// Build a batch where backend-1 owns at least 4 items.
	var items []serve.VerifyRequest
	owned := 0
	for i := 0; owned < 4 || len(items) < 10; i++ {
		spec := fmt.Sprintf("program M%d() { skip; }", i)
		if r.ring.owner(serve.ProblemKey(spec)) == 0 {
			owned++
		}
		items = append(items, serve.VerifyRequest{Spec: spec})
	}
	b1.answerCalls.Store(2)

	results := postBatch(t, ts.URL, serve.BatchRequest{Items: items})
	if len(results) != len(items) {
		t.Fatalf("%d results for %d items", len(results), len(items))
	}
	seen := map[int]int{}
	okCount := 0
	for _, res := range results {
		seen[res.Index]++
		if res.OK {
			okCount++
		} else {
			t.Errorf("item %d not recovered: %+v", res.Index, res)
		}
	}
	for i := range items {
		if seen[i] != 1 {
			t.Errorf("index %d answered %d times", i, seen[i])
		}
	}
	sr := routerStats(t, ts.URL)
	if sr.Failovers < 1 {
		t.Errorf("failovers = %d after mid-stream death, want >= 1", sr.Failovers)
	}
	if served := b1.served.Load() + b2.served.Load(); served < int64(len(items)) {
		t.Errorf("backends answered %d calls for %d items", served, len(items))
	}
}

// TestRouterStatsAndMetrics checks the aggregated stats view and the
// Prometheus rendering.
func TestRouterStatsAndMetrics(t *testing.T) {
	b1 := newStubBackend(t, "backend-1")
	_, ts := newTestRouter(t, Config{ID: "router-under-test"}, b1)

	postVerify(t, ts.URL, "program S() { skip; }")
	sr := routerStats(t, ts.URL)
	if sr.RouterID != "router-under-test" || sr.Requests != 1 {
		t.Errorf("stats: %+v", sr)
	}
	if sr.Queries != 10 || sr.CacheHits != 5 {
		t.Errorf("backend totals not aggregated: queries=%d hits=%d", sr.Queries, sr.CacheHits)
	}
	if len(sr.Backends) != 1 || sr.Backends[0].ServerID != "backend-1" || sr.Backends[0].Routed != 1 {
		t.Errorf("backend rows: %+v", sr.Backends)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	for _, want := range []string{
		`vs3router_requests_total{router="router-under-test"} 1`,
		"# TYPE vs3router_backend_routed_total counter",
		`vs3router_backend_healthy{backend="` + b1.ts.URL + `"} 1`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics missing %q\n%s", want, buf.String())
		}
	}
}

func routerStats(t *testing.T, base string) statsResponse {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return sr
}

func postBatch(t *testing.T, base string, req serve.BatchRequest) []serve.BatchResult {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var out bytes.Buffer
		out.ReadFrom(resp.Body)
		t.Fatalf("batch status %d: %s", resp.StatusCode, out.String())
	}
	var results []serve.BatchResult
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r serve.BatchResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		results = append(results, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return results
}

// startGarbledRPC serves a VS3R peer that completes the handshake and then
// answers every call with status 1000, outside what net/http can write.
func startGarbledRPC(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				br := bufio.NewReader(conn)
				var hello [5]byte
				if _, err := io.ReadFull(br, hello[:]); err != nil {
					return
				}
				conn.Write([]byte(rpc.Magic + "\x01"))
				for {
					n, err := binary.ReadUvarint(br)
					if err != nil {
						return
					}
					frame := make([]byte, n)
					if _, err := io.ReadFull(br, frame); err != nil || frame[0] != 0x01 {
						return // not a REQ frame
					}
					stream, _ := binary.Uvarint(frame[1:])
					resp := binary.AppendUvarint([]byte{0x02}, stream) // RESP frame
					resp = binary.AppendUvarint(resp, 1000)            // status
					resp = append(resp, 0, 0, 0)                       // empty key, backend, body
					conn.Write(append(binary.AppendUvarint(nil, uint64(len(resp))), resp...))
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// TestOutOfRangeStatusFailsOver: a backend whose RESP frame carries a status
// net/http cannot write fails over like a transport failure, so the edge
// request is answered by the next backend instead of panicking in
// WriteHeader and dropping the client's connection.
func TestOutOfRangeStatusFailsOver(t *testing.T) {
	garbled := startStub(t, &stubBackend{id: "garbled", advertise: startGarbledRPC(t)})
	good := newStubBackend(t, "good")
	r, ts := newTestRouter(t, Config{}, garbled, good)

	spec := ""
	for i := 0; spec == ""; i++ {
		if cand := fmt.Sprintf("program G%d() { skip; }", i); r.ring.owner(serve.ProblemKey(cand)) == 0 {
			spec = cand
		}
	}
	resp, body := postVerify(t, ts.URL, spec)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-VS3-Backend") != "good" {
		t.Fatalf("status %d from %q: %s; want 200 from good", resp.StatusCode, resp.Header.Get("X-VS3-Backend"), body)
	}
	if sr := routerStats(t, ts.URL); sr.Failovers < 1 {
		t.Errorf("failovers = %d, want >= 1", sr.Failovers)
	}
}
