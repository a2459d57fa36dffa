package main

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"time"
)

// metricDef names one reported number. End-to-end metrics carry the bound
// recorded in BENCHMARK.json; per-layer metrics carry the end-to-end metric
// (and workload) they are expected to move.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // allowed worsening as a share of the baseline median (end-to-end only)
	Moves  string  // per-layer: "<end-to-end metric>@<workload>, ..."
}

// endToEnd are the gated metrics every workload reports in an untraced run.
// Each exists, and is never zero, on every workload. Times are process CPU
// time: on the shared 2-vCPU hosts this benchmark runs on, the hypervisor
// took up to a third of the guest's CPU (steal) and doubled wall times
// within minutes, while CPU time moved far less. Wall-clock numbers
// (suite_s, reopen_s, warm_suite_s, rps, the replay and session
// percentiles, ...) are printed as report lines beside them.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "pass_cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "decided_share", Unit: "ratio", Better: "higher", Bound: 0.05},
	{Name: "heap_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

const (
	onPaper = "suite_s,cell_geomean_ms@paper-cold; suite_s,warm_suite_s@paper-store"
	onCold  = "suite_s@paper-cold"
	onAll   = "every time metric and heap_mb@all"
)

// perLayer are reported by the traced run of every workload; a layer that
// does not run in a workload reports 0.
var perLayer = []metricDef{
	// front end
	{Name: "spec.build_ms", Unit: "ms", Better: "lower", Moves: onCold},
	{Name: "vc.paths_ms", Unit: "ms", Better: "lower", Moves: onCold},
	// drivers
	{Name: "fixpoint.lfp_s", Unit: "s", Better: "lower", Moves: onPaper},
	{Name: "fixpoint.gfp_s", Unit: "s", Better: "lower", Moves: onPaper},
	{Name: "cbi.cfp_s", Unit: "s", Better: "lower", Moves: onPaper},
	{Name: "precond.s", Unit: "s", Better: "lower", Moves: onPaper},
	{Name: "fixpoint.steps", Unit: "count", Better: "lower", Moves: onPaper},
	{Name: "cbi.models", Unit: "count", Better: "lower", Moves: onPaper},
	{Name: "fixpoint.candidates", Unit: "count", Better: "lower", Moves: onPaper},
	// optimal (with template)
	{Name: "optimal.calls", Unit: "count", Better: "lower", Moves: "suite_s@paper-cold; session_p50_ms@fleet-mixed"},
	{Name: "optimal.solutions", Unit: "count", Better: "lower", Moves: onCold},
	{Name: "optimal.neg_solutions", Unit: "count", Better: "lower", Moves: "suite_s@paper-cold; session_p50_ms@fleet-mixed"},
	{Name: "optimal.neg_preds", Unit: "count", Better: "lower", Moves: onCold},
	{Name: "optimal.core_pruned", Unit: "count", Better: "higher", Moves: "suite_s@paper-cold; session_p50_ms@fleet-mixed"},
	{Name: "optimal.core_evicted", Unit: "count", Better: "lower", Moves: "suite_s@paper-cold; session_p50_ms@fleet-mixed"},
	// smt, sat, lia
	{Name: "smt.queries", Unit: "count", Better: "lower", Moves: "suite_s,cell_geomean_ms@paper-cold; session_p50_ms@fleet-mixed"},
	{Name: "smt.cache_hits", Unit: "count", Better: "higher", Moves: "suite_s,cell_geomean_ms@paper-cold; session_p50_ms@fleet-mixed"},
	{Name: "smt.hit_ratio", Unit: "ratio", Better: "higher", Moves: "suite_s,cell_geomean_ms@paper-cold; session_p50_ms@fleet-mixed"},
	{Name: "smt.contexts", Unit: "count", Better: "lower", Moves: "suite_s,cell_geomean_ms@paper-cold; session_p50_ms@fleet-mixed"},
	{Name: "smt.probes", Unit: "count", Better: "lower", Moves: "suite_s,cell_geomean_ms@paper-cold; session_p50_ms@fleet-mixed"},
	{Name: "smt.lemma_reuse", Unit: "count", Better: "higher", Moves: "suite_s,cell_geomean_ms@paper-cold; session_p50_ms@fleet-mixed"},
	{Name: "smt.shared_lemmas", Unit: "count", Better: "higher", Moves: "suite_s,cell_geomean_ms@paper-cold; session_p50_ms@fleet-mixed"},
	{Name: "smt.dormant", Unit: "count", Better: "lower", Moves: "suite_s,cell_geomean_ms@paper-cold; session_p50_ms@fleet-mixed"},
	{Name: "smt.query_ms", Unit: "ms", Better: "lower", Moves: "suite_s,cell_geomean_ms@paper-cold"},
	{Name: "sat.clauses", Unit: "count", Better: "lower", Moves: "suite_s,cell_geomean_ms@paper-cold"},
	{Name: "sat.vars", Unit: "count", Better: "lower", Moves: "suite_s,cell_geomean_ms@paper-cold"},
	{Name: "lia.fm_scratch", Unit: "count", Better: "lower", Moves: "suite_s,cell_geomean_ms@paper-cold; session_p50_ms@fleet-mixed"},
	{Name: "lia.fm_incremental", Unit: "count", Better: "lower", Moves: "suite_s,cell_geomean_ms@paper-cold; session_p50_ms@fleet-mixed"},
	{Name: "lia.fm_cube_hits", Unit: "count", Better: "higher", Moves: "suite_s,cell_geomean_ms@paper-cold; session_p50_ms@fleet-mixed"},
	{Name: "lia.fm_cap_hits", Unit: "count", Better: "lower", Moves: "suite_s,cell_geomean_ms@paper-cold; session_p50_ms@fleet-mixed"},
	// store
	{Name: "store.hits", Unit: "count", Better: "higher", Moves: "suite_s,warm_suite_s@paper-store"},
	{Name: "store.warm_lemmas", Unit: "count", Better: "higher", Moves: "warm_suite_s@paper-store"},
	{Name: "store.warm_cores", Unit: "count", Better: "higher", Moves: "warm_suite_s@paper-store"},
	{Name: "store.appended", Unit: "count", Better: "lower", Moves: "suite_s@paper-store"},
	{Name: "store.deduped", Unit: "count", Better: "lower", Moves: "suite_s@paper-store"},
	{Name: "store.dropped", Unit: "count", Better: "lower", Moves: "suite_s@paper-store"},
	{Name: "store.flushes", Unit: "count", Better: "lower", Moves: "suite_s@paper-store"},
	{Name: "store.log_mb", Unit: "MB", Better: "lower", Moves: "reopen_s@paper-store"},
	{Name: "store.load_ms", Unit: "ms", Better: "lower", Moves: "reopen_s@paper-store"},
	{Name: "store.close_ms", Unit: "ms", Better: "lower", Moves: "reopen_s@paper-store"},
	// serve
	{Name: "serve.replay_self_us.p50", Unit: "us", Better: "lower", Moves: "replay_p50_ms,rps@fleet-mixed"},
	{Name: "serve.replay_self_us.p99", Unit: "us", Better: "lower", Moves: "replay_p99_ms@fleet-mixed"},
	{Name: "serve.session_self_us.p50", Unit: "us", Better: "lower", Moves: "session_p50_ms@fleet-mixed"},
	{Name: "serve.session_self_us.p99", Unit: "us", Better: "lower", Moves: "session_p99_ms@fleet-mixed"},
	{Name: "engine.session_ms", Unit: "ms", Better: "lower", Moves: "session_p50_ms@fleet-mixed"},
	{Name: "serve.requests", Unit: "count", Better: "lower", Moves: "rps@fleet-mixed"},
	{Name: "serve.outcome_hits", Unit: "count", Better: "higher", Moves: "replay_p50_ms,rps@fleet-mixed"},
	{Name: "serve.problem_cache_hits", Unit: "count", Better: "higher", Moves: "session_p50_ms@fleet-mixed"},
	{Name: "serve.rejected", Unit: "count", Better: "lower", Moves: "error_share@fleet-mixed"},
	// route, rpc
	{Name: "route.self_us.p50", Unit: "us", Better: "lower", Moves: "replay_p50_ms,rps@fleet-mixed"},
	{Name: "route.self_us.p99", Unit: "us", Better: "lower", Moves: "replay_p99_ms@fleet-mixed"},
	{Name: "client.self_us.p50", Unit: "us", Better: "lower", Moves: "replay_p50_ms,rps@fleet-mixed"},
	{Name: "route.store_hits", Unit: "count", Better: "higher", Moves: "replay_p50_ms@fleet-mixed"},
	{Name: "rpc.requests", Unit: "count", Better: "lower", Moves: "replay_p50_ms,rps@fleet-mixed"},
	// runtime
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Moves: onAll},
	{Name: "gc.cycles", Unit: "count", Better: "lower", Moves: onAll},
	{Name: "gc.pause_ms", Unit: "ms", Better: "lower", Moves: onAll},
	// CPU shares of the traced run's profile, by leaf-frame package
	{Name: "cpu.sat", Unit: "share", Better: "lower", Moves: onPaper},
	{Name: "cpu.smt", Unit: "share", Better: "lower", Moves: onPaper},
	{Name: "cpu.lia", Unit: "share", Better: "lower", Moves: onPaper},
	{Name: "cpu.optimal", Unit: "share", Better: "lower", Moves: onPaper},
	{Name: "cpu.template", Unit: "share", Better: "lower", Moves: onPaper},
	{Name: "cpu.logic", Unit: "share", Better: "lower", Moves: onPaper},
	{Name: "cpu.fixpoint", Unit: "share", Better: "lower", Moves: onPaper},
	{Name: "cpu.cbi", Unit: "share", Better: "lower", Moves: onPaper},
	{Name: "cpu.store", Unit: "share", Better: "lower", Moves: "suite_s,reopen_s@paper-store; replay_p50_ms@fleet-mixed"},
	{Name: "cpu.serve", Unit: "share", Better: "lower", Moves: "replay_p50_ms,rps@fleet-mixed"},
	{Name: "cpu.rpc", Unit: "share", Better: "lower", Moves: "replay_p50_ms,rps@fleet-mixed"},
	{Name: "cpu.route", Unit: "share", Better: "lower", Moves: "replay_p50_ms,rps@fleet-mixed"},
	{Name: "cpu.net_http", Unit: "share", Better: "lower", Moves: "replay_p50_ms,rps@fleet-mixed"},
	{Name: "cpu.json", Unit: "share", Better: "lower", Moves: "replay_p50_ms,rps@fleet-mixed"},
	{Name: "cpu.gc", Unit: "share", Better: "lower", Moves: onAll},
	{Name: "cpu.alloc", Unit: "share", Better: "lower", Moves: onAll},
	{Name: "cpu.other", Unit: "share", Better: "lower", Moves: onAll},
	// run-level
	{Name: "trace.items", Unit: "count", Better: "lower", Moves: "sample count behind the per-pass values"},
	{Name: "trace.overhead_s", Unit: "s", Better: "lower", Moves: "traced minus untraced pass_s (suite_s, fleet pass)"},
	{Name: "trace.overhead_rps", Unit: "1/s", Better: "lower", Moves: "untraced minus traced items per second (rps on fleet-mixed)"},
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metricSet is one run's values, keyed by metric name.
type metricSet map[string]float64

// report prints a human-readable line for one workload-specific number; the
// final JSON line carries only the metrics BENCHMARK.json names.
func report(w io.Writer, workload, name string, value float64, unit, note string) {
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Fprintf(w, "report %s %s = %.6g %s%s\n", workload, name, value, unit, note)
}

// --- sample statistics ---

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-quantile (0 < p < 1) by nearest rank, and
// whether at least ten samples lie beyond it — the rule for quoting a tail
// percentile at all.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i], len(s)-1-i >= 10
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(math.Max(x, 1e-9))
	}
	return math.Exp(sum / float64(len(xs)))
}
