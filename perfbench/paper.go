package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/smt"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/template"
)

// cellCap bounds one cell; a cell cut off by it counts as undecided and
// failed.
const cellCap = 20 * time.Second

// cell is one (task, method) pair of bench.DefaultSuite().
type cell struct {
	idx    int // position in suite order
	task   bench.Task
	method core.Method
}

func (c *cell) String() string {
	return fmt.Sprintf("%s [%s] %v", c.task.Name, c.task.Property, c.method)
}

// suiteCells lists the default suite's cells in suite order.
func suiteCells() []*cell {
	var cells []*cell
	for _, t := range bench.DefaultSuite() {
		for _, m := range taskMethods(t) {
			cells = append(cells, &cell{idx: len(cells), task: t, method: m})
		}
	}
	return cells
}

// paperSetup builds the seeded cell order — the suite's cells, every task's
// problem built and validated once, permuted by the seed — and warms the
// process up with one untimed run of bench.QuickSuite() (List Delete under
// all three methods), so lazy runtime and interner set-up is paid here and
// not by the first timed cell.
func paperSetup(seed int64) ([]*cell, error) {
	cells := suiteCells()
	for _, t := range bench.DefaultSuite() {
		if err := t.Build().Validate(); err != nil {
			return nil, fmt.Errorf("%s: %w", t.Name, err)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	for _, t := range bench.QuickSuite() {
		for _, m := range taskMethods(t) {
			if r := runCell(&cell{idx: -1, task: t, method: m}, nil, nil, ""); r.failed() || !r.v.proved {
				return nil, fmt.Errorf("warm-up cell %s %v did not prove", t.Name, m)
			}
		}
	}
	return cells, nil
}

// cellRun is one execution of a cell.
type cellRun struct {
	cell                 *cell
	v                    verdict
	err                  error
	aborted              bool
	steps                int
	wall                 time.Duration
	build, paths, driver time.Duration
	eng                  engineCounters
	col                  *stats.Collector // traced runs only
}

func (r *cellRun) failed() bool { return r.err != nil || r.aborted }

// engineCounters are the solver and engine counters of one fresh Verifier.
type engineCounters struct {
	queries, cacheHits, contexts, probes, lemmaReuse, sharedLemmas, dormant int64
	fmScratch, fmIncremental, fmCubeHits, fmCapHits                         int64
	corePruned, coreEvicted, storeHits, warmLemmas, warmCores               int64
}

func readEngine(v *core.Verifier) engineCounters {
	e := v.Engine()
	return engineCounters{
		queries: e.S.NumQueries(), cacheHits: e.S.NumCacheHits(), contexts: e.S.NumContexts(),
		probes: e.S.NumAssumptionProbes(), lemmaReuse: e.S.NumLemmaReuseHits(),
		sharedLemmas: e.S.NumSharedLemmas(), dormant: e.S.NumDormantContexts(),
		fmScratch: e.S.NumFMScratch(), fmIncremental: e.S.NumFMIncremental(),
		fmCubeHits: e.S.NumFMCubeHits(), fmCapHits: e.S.NumFMCapHits(),
		corePruned: e.NumCorePruned(), coreEvicted: e.NumCoreEvicted(),
		storeHits:  e.S.NumStoreVerdictHits() + e.NumConsStoreHits(),
		warmLemmas: e.S.NumWarmLemmas(), warmCores: e.NumWarmCores(),
	}
}

// runCell builds the cell's problem, compiles its paths, and runs the
// driver on a fresh Verifier (attached to knowledge when non-nil). With a
// tracer it records a cell span with build, paths and driver children and
// attaches a stats collector.
func runCell(c *cell, knowledge *store.Store, tr *tracer, req string) *cellRun {
	var stopped atomic.Bool
	timer := time.AfterFunc(cellCap, func() { stopped.Store(true) })
	defer timer.Stop()
	cfg := core.Config{Knowledge: knowledge}
	cfg.Fixpoint.Stop = stopped.Load
	r := &cellRun{cell: c}
	if tr != nil {
		r.col = stats.New()
		cfg.Stats = r.col
	}

	start := time.Now()
	p := c.task.Build()
	built := time.Now()
	for i := range p.Paths() {
		p.PathVCSkeleton(i)
	}
	compiled := time.Now()
	v := core.New(cfg)
	switch c.task.Kind {
	case bench.Verify:
		o, err := v.Verify(p, c.method)
		r.err, r.aborted, r.steps = err, o.Aborted, o.Steps
		r.v = verifyVerdict(p, o)
	case bench.Precondition:
		res, enum, err := v.InferPreconditions(p)
		r.err, r.aborted, r.steps = err, enum.Aborted, enum.Steps
		pres := make([]logic.Formula, len(res))
		sols := make([]template.Solution, len(res))
		for i, pc := range res {
			pres[i], sols[i] = pc.Pre, pc.Solution
		}
		r.v = precondVerdictOf(pres, sols)
	}
	end := time.Now()

	r.wall, r.build, r.paths, r.driver = end.Sub(start), built.Sub(start), compiled.Sub(built), end.Sub(compiled)
	r.eng = readEngine(v)
	if tr != nil {
		id := tr.add("cell", req, 0, start, end)
		tr.add("build", req, id, start, built)
		tr.add("paths", req, id, built, compiled)
		tr.add("driver", req, id, compiled, end)
	}
	return r
}

// addCell folds one cell's layer numbers into m.
func addCell(m metricSet, r *cellRun) {
	m["spec.build_ms"] += durMS(r.build)
	m["vc.paths_ms"] += durMS(r.paths)
	switch {
	case r.cell.task.Kind == bench.Precondition:
		m["precond.s"] += r.driver.Seconds()
		m["fixpoint.steps"] += float64(r.steps)
	case r.cell.method == core.LFP:
		m["fixpoint.lfp_s"] += r.driver.Seconds()
		m["fixpoint.steps"] += float64(r.steps)
	case r.cell.method == core.GFP:
		m["fixpoint.gfp_s"] += r.driver.Seconds()
		m["fixpoint.steps"] += float64(r.steps)
	case r.cell.method == core.CFP:
		m["cbi.cfp_s"] += r.driver.Seconds()
		m["cbi.models"] += float64(r.steps)
	}
	if col := r.col; col != nil {
		opt := col.OptSolutionCounts()
		neg := col.NegSolutionSizes()
		m["optimal.calls"] += float64(len(opt))
		m["optimal.solutions"] += sumInts(opt)
		m["optimal.neg_solutions"] += float64(len(neg))
		m["optimal.neg_preds"] += sumInts(neg)
		m["fixpoint.candidates"] += sumInts(col.Candidates())
		clauses, vars := col.SATSizes()
		m["sat.clauses"] += sumInts(clauses)
		m["sat.vars"] += sumInts(vars)
		for _, d := range col.QueryDurations() {
			m["smt.query_ms"] += durMS(d)
		}
	}
	e := r.eng
	m["optimal.core_pruned"] += float64(e.corePruned)
	m["optimal.core_evicted"] += float64(e.coreEvicted)
	m["smt.queries"] += float64(e.queries)
	m["smt.cache_hits"] += float64(e.cacheHits)
	m["smt.contexts"] += float64(e.contexts)
	m["smt.probes"] += float64(e.probes)
	m["smt.lemma_reuse"] += float64(e.lemmaReuse)
	m["smt.shared_lemmas"] += float64(e.sharedLemmas)
	m["smt.dormant"] += float64(e.dormant)
	m["lia.fm_scratch"] += float64(e.fmScratch)
	m["lia.fm_incremental"] += float64(e.fmIncremental)
	m["lia.fm_cube_hits"] += float64(e.fmCubeHits)
	m["lia.fm_cap_hits"] += float64(e.fmCapHits)
	m["store.hits"] += float64(e.storeHits)
	m["store.warm_lemmas"] += float64(e.warmLemmas)
	m["store.warm_cores"] += float64(e.warmCores)
}

func sumInts(xs []int) float64 {
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return s
}

// paperJudge checks cell answers against the known answers and rechecks
// every distinct proof once, outside the timed region.
type paperJudge struct {
	seed      int64
	solver    *smt.Solver
	attempted int
	failed    int
	decided   int
	wrong     int
	checked   map[string]bool // cell index + answer text -> recheck passed
	notes     []string
}

func newPaperJudge(seed int64) *paperJudge {
	return &paperJudge{seed: seed, solver: smt.NewSolver(smt.Options{}), checked: map[string]bool{}}
}

func (j *paperJudge) judge(r *cellRun) {
	j.attempted++
	if r.failed() {
		j.failed++
		return
	}
	key := fmt.Sprintf("%d|%s", r.cell.idx, r.v.text)
	ok, seen := j.checked[key]
	if !seen {
		err := recheck(r.cell.task.Build, r.v, j.seed+int64(r.cell.idx))
		ok = err == nil
		j.checked[key] = ok
		if err != nil {
			j.notes = append(j.notes, fmt.Sprintf("%v: recheck failed: %v", r.cell, err))
		}
	}
	switch {
	case !ok:
		j.wrong++
	case decided(r.cell.task, r.v, j.solver):
		j.decided++
	}
}

// paperPass is the result of one pass over the cells.
type paperPass struct {
	runs []*cellRun
	wall time.Duration
}

func runPass(cells []*cell, knowledge *store.Store, tr *tracer, label string) paperPass {
	start := time.Now()
	out := paperPass{}
	for _, c := range cells {
		out.runs = append(out.runs, runCell(c, knowledge, tr, fmt.Sprintf("%s/cell%d", label, c.idx)))
	}
	out.wall = time.Since(start)
	return out
}

// storeDir returns a fresh knowledge-store directory under the run's output
// directory.
func storeDir(out string, pass int) string {
	return filepath.Join(out, fmt.Sprintf("store-%d-%d", os.Getpid(), pass))
}

func openStore(dir string) (*store.Store, error) {
	return store.Open(dir, store.Options{Params: core.Config{}.SMT.StoreParams()})
}
