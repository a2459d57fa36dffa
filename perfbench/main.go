// Command perfbench is the repository's benchmark: one command that runs a
// workload, checks every answer against a known answer, and prints every
// metric by name with its unit. The last line of its output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. An untraced run
// (--trace 0) reports the end-to-end metrics named in BENCHMARK.json; a
// traced run (--trace 1) reports the per-layer metrics.
//
// Build and run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload paper-cold --seed 1 --seconds 20 --trace 0
//
// Workloads (see README.md for why each exists):
//
//	paper-cold   the default suite's 19 cells, each on a fresh core.Verifier
//	paper-store  the same cells, a writing and a reading knowledge-store lifetime
//	fleet-mixed  two store-backed vs3d backends behind a router, closed-loop load
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	root     string // repository root (BENCH_*.json for the old-report tie-in)
	out      string // scratch directory for stores, spans and profiles
}

// outcome is what a workload returns: its metrics (end-to-end or per-layer,
// by mode) and its answer counts.
type outcome struct {
	metrics   metricSet
	attempted int
	failed    int
	wrong     int
}

var workloads = map[string]func(options, io.Writer) (outcome, error){
	"paper-cold":  runPaperCold,
	"paper-store": runPaperStore,
	"fleet-mixed": runFleetMixed,
}

func main() {
	var o options
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", "workload: paper-cold, paper-store or fleet-mixed")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&seconds, "seconds", 20, "measuring time")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.root, "root", ".", "repository root")
	flag.StringVar(&o.out, "out", ".bench_build", "scratch directory")
	flag.Parse()
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(o options, w io.Writer) error {
	fn, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	fmt.Fprintf(w, "settings workload=%s seed=%d seconds=%v trace=%v gomaxprocs=%d gogc=%s go=%s\n",
		o.workload, o.seed, o.seconds.Seconds(), o.trace, runtime.GOMAXPROCS(0), gogc, runtime.Version())
	res, err := fn(o, w)
	if err != nil {
		return err
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	final := result{
		Correct:   res.wrong == 0 && res.attempted > 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := res.metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s missing or not finite", d.Name)
		}
		final.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "metric %s = %.6g %s", d.Name, v, d.Unit)
		if d.Moves != "" {
			fmt.Fprintf(w, "  -> %s", d.Moves)
		}
		fmt.Fprintln(w)
	}
	line, err := json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	return nil
}

// pick returns the metrics the run's mode reports: the per-layer set, with 0
// for layers the workload does not run, or the end-to-end set.
func pick(o options, layer, e2e metricSet) metricSet {
	if !o.trace {
		return e2e
	}
	for _, d := range perLayer {
		if _, ok := layer[d.Name]; !ok {
			layer[d.Name] = 0
		}
	}
	return layer
}

// passClock runs passes until the run's measuring time is spent: another
// pass starts only while the time left exceeds half a typical pass, and at
// least minPasses run.
type passClock struct {
	start     time.Time
	budget    time.Duration
	minPasses int
	passes    []time.Duration
}

func (c *passClock) more() bool {
	n := len(c.passes)
	if n < c.minPasses {
		return true
	}
	left := c.budget - time.Since(c.start)
	return left > time.Duration(median(durs(c.passes))*float64(time.Second))/2
}

func durs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// phase is a workload's measured phase: the pass clock and, in a traced
// run, the tracer, the CPU profile and the per-layer sums. Traced runs
// alternate untraced and traced passes, so the tracing overhead is the
// difference of their medians.
type phase struct {
	clock         passClock
	tr            *tracer
	prof          *cpuProfile
	mem           memSample
	layer         metricSet
	untracedWalls []float64
	untracedCPU   []float64
	tracedWalls   []float64
	items         int // items per pass (cells or requests)
	passStart     time.Time
	passCPU       float64
	last          []*cellRun
}

func startPhase(o options) (*phase, error) {
	ph := &phase{clock: passClock{start: time.Now(), budget: o.seconds, minPasses: 2}, layer: metricSet{}}
	if o.trace {
		prof, err := startCPUProfile(o.out, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
		if err != nil {
			return nil, err
		}
		ph.prof, ph.tr, ph.mem = prof, newTracer(), readMem()
	}
	return ph, nil
}

// tracerFor returns the tracer for pass n: nil for untraced passes.
func (ph *phase) tracerFor(n int) *tracer {
	if n%2 == 1 {
		return ph.tr
	}
	return nil
}

// startPass notes the wall clock and the process CPU time at a pass start.
func (ph *phase) startPass() { ph.passStart, ph.passCPU = time.Now(), cpuSeconds() }

// passDone records pass n of items cells or requests and returns its wall
// time.
func (ph *phase) passDone(n, items int) time.Duration {
	wall := time.Since(ph.passStart)
	ph.clock.passes = append(ph.clock.passes, wall)
	ph.items = items
	if ph.tracerFor(n) != nil {
		ph.tracedWalls = append(ph.tracedWalls, wall.Seconds())
	} else {
		ph.untracedWalls = append(ph.untracedWalls, wall.Seconds())
		ph.untracedCPU = append(ph.untracedCPU, cpuSeconds()-ph.passCPU)
	}
	return wall
}

// finish ends a traced phase: the per-layer sums become per-pass values,
// and the runtime, CPU, overhead and self-time numbers are added. It
// returns nil for an untraced run.
func (ph *phase) finish(o options, w io.Writer) (metricSet, error) {
	if !o.trace {
		return nil, nil
	}
	m := ph.layer
	n := float64(len(ph.tracedWalls))
	for k := range m {
		m[k] /= n
	}
	if q := m["smt.queries"] + m["smt.cache_hits"]; q > 0 {
		m["smt.hit_ratio"] = m["smt.cache_hits"] / q
	}
	addRuntime(m, ph.mem, len(ph.clock.passes))
	if err := ph.prof.stop(m); err != nil {
		return nil, err
	}
	un, tr := median(ph.untracedWalls), median(ph.tracedWalls)
	m["trace.items"] = float64(ph.items) * n
	m["trace.overhead_s"] = tr - un
	m["trace.overhead_rps"] = float64(ph.items)/un - float64(ph.items)/tr
	self := ph.tr.selfTimes()
	names := make([]string, 0, len(self))
	for k := range self {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		report(w, o.workload, "self."+k+"_ms", durMS(self[k])/n, "ms", "span self time per traced pass")
	}
	path := filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.jsonl", o.workload, o.seed))
	if err := ph.tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "spans written to %s\n", path)
	return m, nil
}
