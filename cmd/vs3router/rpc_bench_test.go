package main

import (
	"context"
	"flag"
	"testing"
	"time"

	"repro/internal/load"
	"repro/internal/route"
	"repro/internal/rpc"
	"repro/internal/serve"
	"repro/internal/store"
)

// wallClock turns on TestRPCBench, the one gate that compares wall-clock
// latencies: `go test -run TestRPCBench ./cmd/vs3router/ -args -wallclock`
// (`make bench-rpc`).
var wallClock = flag.Bool("wallclock", false, "run the wall-clock gated hedging benchmark (TestRPCBench)")

// openBenchStore opens a throwaway knowledge store for one bench backend,
// closed after the backend's servers shut down (t.Cleanup runs LIFO).
func openBenchStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{
		Params: serve.Config{}.Core.SMT.StoreParams(),
	})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(func() { _ = st.Close() })
	return st
}

// loadArm runs corpus against base and fails the test on any wrong verdict
// or transport error.
func loadArm(t *testing.T, base string, corpus []load.Item, requests int) load.Result {
	t.Helper()
	res, err := load.Run(context.Background(), load.Options{
		BaseURL:     base,
		Corpus:      corpus,
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

// TestRPCBench is `make bench-rpc`: hedged vs unhedged routing over real
// TCP daemons. A store-backed fleet with one artificially stalled backend is
// driven through an unhedged and a hedged router; hedging must cap the
// stalled owner's tail (lower p99) with identical verdicts.
//
// Unlike the other bench tests, whose gates count deterministic work (SMT
// queries, FM eliminations, log bytes), this gate is a wall-clock
// comparison — meaningless when the rest of the suite is competing for the
// same cores — so the test only runs when -wallclock is set and skips under
// `go test ./...`.
func TestRPCBench(t *testing.T) {
	if testing.Short() {
		t.Skip("rpc benchmark is not a -short test")
	}
	if !*wallClock {
		t.Skip("wall-clock gated benchmark; run via make bench-rpc (-args -wallclock)")
	}
	corpus := load.DefaultCorpus()

	// --- Hedging comparison: one stalled backend, two routers. ---
	// Both backends carry a store here too, warmed directly below on the
	// whole corpus (the stall wraps only the rpc dispatch, so the direct
	// HTTP warmup is fast): a hedge fired at the ring successor then
	// replays instantly instead of recomputing a problem only the owner
	// has warm, so the arms compare hedging policy, not engine load.
	stall := &delayRPC{delay: 400 * time.Millisecond}
	bSlow := startRPCBackend(t, serve.Config{ID: "bench-stalled", Store: openBenchStore(t)}, func(h rpc.Handler) rpc.Handler { stall.inner = h; return stall })
	bOK := startRPCBackend(t, serve.Config{ID: "bench-ok", Store: openBenchStore(t)}, nil)
	degraded := []string{bSlow.hts.URL, bOK.hts.URL}
	unhedgedBase, unhedgedStop := startRouter(t, route.Config{Backends: degraded})
	defer unhedgedStop()
	hedgedBase, hedgedStop := startRouter(t, route.Config{
		Backends: degraded,
		Hedge:    true,
		HedgeMin: 5 * time.Millisecond,
		HedgeMax: 25 * time.Millisecond,
	})
	defer hedgedStop()
	waitProto(t, unhedgedBase, map[string]string{bSlow.hts.URL: "rpc", bOK.hts.URL: "rpc"})
	waitProto(t, hedgedBase, map[string]string{bSlow.hts.URL: "rpc", bOK.hts.URL: "rpc"})

	// Warm both stores on the whole corpus, hitting each backend directly
	// so the successor holds every owner's outcomes too.
	loadArm(t, bSlow.hts.URL, corpus, len(corpus))
	loadArm(t, bOK.hts.URL, corpus, len(corpus))
	unhedged := loadArm(t, unhedgedBase, corpus, 2*len(corpus))
	hedged := loadArm(t, hedgedBase, corpus, 2*len(corpus))
	hedgeStats := fetchRouterStats(t, hedgedBase)

	t.Logf("unhedged: p99=%.1f ms; hedged: p99=%.1f ms (fired=%d won=%d)", unhedged.P99MS, hedged.P99MS, hedgeStats.HedgeFired, hedgeStats.HedgeWon)

	if hedged.P99MS >= unhedged.P99MS {
		t.Errorf("hedged p99 %.1fms not below unhedged %.1fms", hedged.P99MS, unhedged.P99MS)
	}
	if hedgeStats.HedgeWon == 0 {
		t.Error("hedged arm never won a race against the stalled owner")
	}
}
