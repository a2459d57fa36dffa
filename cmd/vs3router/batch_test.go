package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/load"
	"repro/internal/route"
	"repro/internal/rpc"
	"repro/internal/serve"
)

// postBatchTo posts items to base's /v1/batch and returns the results by
// item index, failing the test on a duplicate or missing index.
func postBatchTo(t *testing.T, ctx context.Context, base string, items []serve.VerifyRequest) map[int]serve.BatchResult {
	t.Helper()
	body, _ := json.Marshal(serve.BatchRequest{Items: items})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s batch: status %d", base, resp.StatusCode)
	}
	out := map[int]serve.BatchResult{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var res serve.BatchResult
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("bad batch line %q: %v", sc.Text(), err)
		}
		if _, dup := out[res.Index]; dup {
			t.Fatalf("index %d answered twice", res.Index)
		}
		out[res.Index] = res
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(items) {
		t.Fatalf("%s batch answered %d of %d items", base, len(out), len(items))
	}
	return out
}

// TestBatchRespectsBackendPool is the regression test for batch shedding: a
// router must not send one batch's items to a backend faster than its
// session pool admits them. Sixteen distinct cold specs (trailing newlines
// vary the problem key) go as one /v1/batch through a router in front of
// one Pool 2 backend, whose admission capacity is Pool + 4×Pool = 10. Every
// item must answer 200 with the right verdict, exactly as the same batch
// posted straight to a fresh backend's own /v1/batch does.
func TestBatchRespectsBackendPool(t *testing.T) {
	corpus := load.DefaultCorpus()
	items := make([]serve.VerifyRequest, 16)
	want := make([]bool, len(items))
	for i := range items {
		it := corpus[i%len(corpus)]
		items[i] = serve.VerifyRequest{Spec: it.Spec + strings.Repeat("\n", i+1), Method: it.Method}
		want[i] = it.WantProved
	}

	routed := startRPCBackend(t, serve.Config{ID: "pool-2", Pool: 2}, nil)
	base, stop := startRouter(t, route.Config{Backends: []string{routed.hts.URL}})
	defer stop()
	waitProto(t, base, map[string]string{routed.hts.URL: "rpc"})
	viaRouter := postBatchTo(t, context.Background(), base, items)

	direct := startRPCBackend(t, serve.Config{ID: "direct", Pool: 2}, nil)
	straight := postBatchTo(t, context.Background(), direct.hts.URL, items)

	for i := range items {
		r, d := viaRouter[i], straight[i]
		if d.Status != http.StatusOK || d.Verify == nil || d.Verify.Proved != want[i] {
			t.Fatalf("item %d straight to the backend: %+v", i, d)
		}
		if r.Status != http.StatusOK || !r.OK || r.Verify == nil {
			t.Errorf("item %d through the router: status %d (%s), want 200", i, r.Status, r.Error)
			continue
		}
		if r.Verify.Proved != d.Verify.Proved || r.ProblemKey != d.ProblemKey {
			t.Errorf("item %d: router proved=%v key=%s, backend proved=%v key=%s",
				i, r.Verify.Proved, r.ProblemKey, d.Verify.Proved, d.ProblemKey)
		}
	}
	if n := probeStats(t, routed.hts.URL).Requests; n != int64(len(items)) {
		t.Errorf("routed backend served %d requests for %d items", n, len(items))
	}
}

// TestBatchItemsHedge: batch items take the same hedged path as single
// requests. With the item's owner stalled, the ring successor answers it
// long before the stall ends, and the router counts the won race.
func TestBatchItemsHedge(t *testing.T) {
	stall := &delayRPC{delay: 30 * time.Second}
	bSlow := startRPCBackend(t, serve.Config{ID: "batch-stalled"}, func(h rpc.Handler) rpc.Handler { stall.inner = h; return stall })
	bFast := startRPCBackend(t, serve.Config{ID: "batch-fast"}, nil)
	urls := []string{bSlow.hts.URL, bFast.hts.URL}
	base, stop := startRouter(t, route.Config{
		Backends: urls,
		Hedge:    true,
		HedgeMin: 5 * time.Millisecond,
		HedgeMax: 50 * time.Millisecond,
	})
	defer stop()
	waitProto(t, base, map[string]string{bSlow.hts.URL: "rpc", bFast.hts.URL: "rpc"})

	// A probe router over the same ring picks a spec variant the stalled
	// backend owns.
	probe, err := route.New(route.Config{Backends: urls, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	item := load.SmokeCorpus()[0]
	spec := item.Spec
	for i := 0; probe.Owner(serve.ProblemKey(spec)) != bSlow.hts.URL; i++ {
		if i > 10_000 {
			t.Fatal("no spec variant owned by the stalled backend")
		}
		spec = item.Spec + strings.Repeat("\n", i+1)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res := postBatchTo(t, ctx, base, []serve.VerifyRequest{{Spec: spec, Method: item.Method}})[0]
	if !res.OK || res.Verify == nil || res.Verify.Proved != item.WantProved {
		t.Fatalf("hedged batch item: %+v", res)
	}
	if n := probeStats(t, bFast.hts.URL).Requests; n != 1 {
		t.Errorf("ring successor served %d requests, want the hedged item", n)
	}
	if st := fetchRouterStats(t, base); st.HedgeWon < 1 {
		t.Errorf("hedge_won = %d, want >= 1", st.HedgeWon)
	}
}
