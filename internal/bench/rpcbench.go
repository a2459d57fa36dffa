package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/load"
)

// Bench9Report is the BENCH_9.json schema: a degraded-fleet comparison of
// hedged vs unhedged routing, and — in reports from before the router's
// HTTP backend leg was removed — the binary VS3R transport head-to-head
// against HTTP/JSON over the same warmed fleet. Produced by TestRPCBench in
// cmd/vs3router (`make bench-rpc`); rendered by `benchtab -table 9` from
// the committed file.
type Bench9Report struct {
	Report   string                 `json:"report"`
	Purpose  string                 `json:"purpose"`
	Host     string                 `json:"host"`
	GoMaxP   int                    `json:"gomaxprocs"`
	Corpus   int                    `json:"corpus_items"`
	Distinct int                    `json:"distinct_problems"`
	Requests int                    `json:"requests_per_arm"`
	Arms     map[string]load.Result `json:"arms"`
	Findings Bench9Findings         `json:"findings"`
	Notes    []string               `json:"notes"`
}

// Bench9Findings are the gated claims: binary rpc beats HTTP/JSON on p95
// latency and throughput with identical verdicts, and hedging caps the
// p99 a degraded backend would otherwise impose.
type Bench9Findings struct {
	HTTPP95MS         float64 `json:"http_p95_ms"`
	RPCP95MS          float64 `json:"rpc_p95_ms"`
	P95SpeedupX       float64 `json:"http_over_rpc_p95"`
	HTTPThroughput    float64 `json:"http_throughput_rps"`
	RPCThroughput     float64 `json:"rpc_throughput_rps"`
	ThroughputGainX   float64 `json:"rpc_over_http_throughput"`
	UnhedgedP99MS     float64 `json:"slow_unhedged_p99_ms"`
	HedgedP99MS       float64 `json:"slow_hedged_p99_ms"`
	P99ReductionX     float64 `json:"unhedged_over_hedged_p99"`
	HedgeFired        int64   `json:"hedge_fired"`
	HedgeWon          int64   `json:"hedge_won"`
	VerdictsIdentical bool    `json:"verdicts_identical_across_arms"`
}

// ReadBench9 loads a committed BENCH_9.json.
func ReadBench9(path string) (Bench9Report, error) {
	var rep Bench9Report
	b, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Report != "BENCH_9" {
		return rep, fmt.Errorf("%s: report %q, want BENCH_9", path, rep.Report)
	}
	return rep, nil
}

// WriteBench9Table renders the transport and hedging comparison.
func WriteBench9Table(w io.Writer, rep Bench9Report) {
	fmt.Fprintf(w, "Table 9: VS3R transport and hedged routing (%s, GOMAXPROCS=%d)\n", rep.Host, rep.GoMaxP)
	fmt.Fprintf(w, "%d corpus items (%d distinct problems), %d requests per arm\n\n", rep.Corpus, rep.Distinct, rep.Requests)
	fmt.Fprintf(w, "%-16s %8s %8s %8s %10s %6s %6s\n", "arm", "p50 ms", "p95 ms", "p99 ms", "req/s", "ok", "bad")
	for _, name := range []string{"http", "rpc", "slow_unhedged", "slow_hedged"} {
		arm, ok := rep.Arms[name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-16s %8.2f %8.2f %8.2f %10.1f %6d %6d\n",
			name, arm.P50MS, arm.P95MS, arm.P99MS, arm.ThroughputRPS,
			arm.OK, arm.Incorrect+arm.Errors)
	}
	f := rep.Findings
	fmt.Fprintln(w)
	if _, ok := rep.Arms["http"]; ok { // retired arms: only reports from before the HTTP backend leg was removed
		fmt.Fprintf(w, "transport: rpc p95 %.2fms vs http %.2fms (%.2fx), throughput %.1f vs %.1f req/s (%.2fx)\n",
			f.RPCP95MS, f.HTTPP95MS, f.P95SpeedupX, f.RPCThroughput, f.HTTPThroughput, f.ThroughputGainX)
	}
	fmt.Fprintf(w, "hedging:   degraded-fleet p99 %.1fms hedged vs %.1fms unhedged (%.1fx), %d fired / %d won\n",
		f.HedgedP99MS, f.UnhedgedP99MS, f.P99ReductionX, f.HedgeFired, f.HedgeWon)
	fmt.Fprintf(w, "verdicts identical across arms: %v\n", f.VerdictsIdentical)
}
