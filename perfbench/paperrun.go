package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// setupRuns is how many times a paper workload sets up; setup_s is the
// median.
const setupRuns = 5

// timedPaperSetups runs paperSetup setupRuns times and returns the last
// cell order with the median set-up time in CPU and wall seconds.
func timedPaperSetups(seed int64) ([]*cell, setupTimes, error) {
	var cells []*cell
	var st setupTimes
	for i := 0; i < setupRuns; i++ {
		stop := st.start()
		c, err := paperSetup(seed)
		if err != nil {
			return nil, st, err
		}
		stop()
		cells = c
	}
	return cells, st, nil
}

// setupTimes collects repeated set-ups; setup_s is their median CPU time.
type setupTimes struct{ cpu, wall []float64 }

// start begins one timed set-up; the returned func ends it.
func (s *setupTimes) start() func() {
	cpu0, wall0 := cpuSeconds(), time.Now()
	return func() {
		s.cpu = append(s.cpu, cpuSeconds()-cpu0)
		s.wall = append(s.wall, time.Since(wall0).Seconds())
	}
}

func (s *setupTimes) report(w io.Writer, workload string) {
	report(w, workload, "setup_wall_s", median(s.wall), "s", fmt.Sprintf("median of %d", len(s.wall)))
}

// runPaperCold is the paper-cold workload: passes over the default suite,
// each cell on a fresh Verifier, no store and no serving.
func runPaperCold(o options, w io.Writer) (outcome, error) {
	cells, setup, err := timedPaperSetups(o.seed)
	if err != nil {
		return outcome{}, err
	}
	ph, err := startPhase(o)
	if err != nil {
		return outcome{}, err
	}
	var runs []*cellRun
	cellMS := cellTimes{}
	for n := 0; ph.clock.more(); n++ {
		tr := ph.tracerFor(n)
		ph.startPass()
		p := runPass(cells, nil, tr, fmt.Sprintf("pass%d", n))
		ph.passDone(n, len(p.runs))
		for _, r := range p.runs {
			runs = append(runs, r)
			cellMS.add(r.cell.idx, r.wall)
			if tr != nil {
				addCell(ph.layer, r)
			}
		}
		if tr != nil {
			ph.last = p.runs
		}
	}
	heap := heapMB()
	layer, err := ph.finish(o, w)
	if err != nil {
		return outcome{}, err
	}

	j := newPaperJudge(o.seed)
	for _, r := range runs {
		j.judge(r)
	}
	j.print(w, o.workload)
	suite := median(ph.untracedWalls)
	geo := cellMS.geomean()
	setup.report(w, o.workload)
	report(w, o.workload, "suite_s", suite, "s", fmt.Sprintf("median of %d passes", len(ph.untracedWalls)))
	report(w, o.workload, "cell_geomean_ms", geo, "ms", fmt.Sprintf("%d cells, median of %d passes each", len(cellMS), len(ph.clock.passes)))
	report(w, o.workload, "decided_share", j.share(), "ratio", fmt.Sprintf("%d of %d", j.decided, j.attempted))
	report(w, o.workload, "wrong_answers", float64(j.wrong), "count", "")
	report(w, o.workload, "heap_mb", heap, "MB", "")
	if o.trace && ph.last != nil {
		compareBench4(w, o.root, ph.last)
	}
	return outcome{
		attempted: j.attempted, failed: j.failed, wrong: j.wrong,
		metrics: pick(o, layer, metricSet{
			"setup_s": median(setup.cpu), "pass_cpu_s": median(ph.untracedCPU),
			"decided_share": j.share(), "heap_mb": heap,
		}),
	}, nil
}

// runPaperStore is the paper-store workload: per pass, a writing lifetime
// on an empty knowledge store, close and reopen, and a reading lifetime.
func runPaperStore(o options, w io.Writer) (outcome, error) {
	cells, setup, err := timedPaperSetups(o.seed)
	if err != nil {
		return outcome{}, err
	}
	ph, err := startPhase(o)
	if err != nil {
		return outcome{}, err
	}
	var runs []*cellRun
	writeMS := cellTimes{}
	var suites, reopens, warms []float64
	mismatches := 0
	var warmWork float64
	for n := 0; ph.clock.more(); n++ {
		tr := ph.tracerFor(n)
		label := fmt.Sprintf("pass%d", n)
		dir := storeDir(o.out, n)
		ph.startPass()
		start := time.Now()
		st, err := openStore(dir)
		if err != nil {
			return outcome{}, err
		}
		opened := time.Now()
		write := runPass(cells, st, tr, label+"/write")
		closing := time.Now()
		if err := st.Close(); err != nil {
			return outcome{}, fmt.Errorf("close first lifetime: %w", err)
		}
		closed := time.Now()
		first := st.Stats()
		st, err = openStore(dir)
		if err != nil {
			return outcome{}, err
		}
		reopened := time.Now()
		warm := runPass(cells, st, tr, label+"/warm")
		closing2 := time.Now()
		if err := st.Close(); err != nil {
			return outcome{}, fmt.Errorf("close second lifetime: %w", err)
		}
		end := time.Now()
		second := st.Stats()
		if err := os.RemoveAll(dir); err != nil {
			return outcome{}, err
		}

		ph.passDone(n, 2*len(cells))
		suites = append(suites, closing.Sub(start).Seconds())
		reopens = append(reopens, reopened.Sub(closing).Seconds())
		warms = append(warms, warm.wall.Seconds())
		for i, r := range write.runs {
			if r.v.text != warm.runs[i].v.text {
				mismatches++
				fmt.Fprintf(w, "warm answer differs: %v: %q vs %q\n", r.cell, r.v.text, warm.runs[i].v.text)
			}
			writeMS.add(r.cell.idx, r.wall)
		}
		runs = append(runs, write.runs...)
		runs = append(runs, warm.runs...)
		if tr != nil {
			tr.add("store.open", label, 0, start, opened)
			tr.add("store.close", label, 0, closing, closed)
			tr.add("store.open", label, 0, closed, reopened)
			tr.add("store.close", label, 0, closing2, end)
			for _, r := range append(write.runs, warm.runs...) {
				addCell(ph.layer, r)
			}
			l := ph.layer
			l["store.appended"] += float64(first.Appended + second.Appended)
			l["store.deduped"] += float64(first.Deduped + second.Deduped)
			l["store.dropped"] += float64(first.Dropped + second.Dropped)
			l["store.flushes"] += float64(first.Flushes + second.Flushes)
			l["store.log_mb"] += float64(first.LogBytes) / (1 << 20)
			l["store.load_ms"] += float64(second.LoadMillis)
			l["store.close_ms"] += durMS(closed.Sub(closing))
			warmWork = 0
			for _, r := range warm.runs {
				warmWork += float64(r.eng.queries + r.eng.fmScratch + r.eng.fmIncremental)
			}
		}
	}
	heap := heapMB()
	layer, err := ph.finish(o, w)
	if err != nil {
		return outcome{}, err
	}

	j := newPaperJudge(o.seed)
	for _, r := range runs {
		j.judge(r)
	}
	j.wrong += mismatches
	j.print(w, o.workload)
	setup.report(w, o.workload)
	report(w, o.workload, "cycle_s", median(ph.untracedWalls), "s", fmt.Sprintf("write + reopen + read, median of %d", len(ph.untracedWalls)))
	report(w, o.workload, "suite_s", median(suites), "s", fmt.Sprintf("writing lifetime, median of %d", len(suites)))
	report(w, o.workload, "cell_geomean_ms", writeMS.geomean(), "ms", fmt.Sprintf("writing lifetime, %d cells, median of %d passes each", len(writeMS), len(suites)))
	report(w, o.workload, "reopen_s", median(reopens), "s", fmt.Sprintf("close + store.Open, median of %d", len(reopens)))
	report(w, o.workload, "warm_suite_s", median(warms), "s", fmt.Sprintf("reading lifetime, median of %d", len(warms)))
	report(w, o.workload, "decided_share", j.share(), "ratio", fmt.Sprintf("%d of %d", j.decided, j.attempted))
	report(w, o.workload, "wrong_answers", float64(j.wrong), "count", fmt.Sprintf("%d warm/cold mismatches", mismatches))
	report(w, o.workload, "heap_mb", heap, "MB", "")
	if o.trace {
		report(w, o.workload, "warm_from_scratch_work", warmWork, "count",
			"SMT queries + FM eliminations of the last traced reading lifetime; BENCH_8.json warm arm: 0")
	}
	return outcome{
		attempted: j.attempted, failed: j.failed, wrong: j.wrong,
		metrics: pick(o, layer, metricSet{
			"setup_s": median(setup.cpu), "pass_cpu_s": median(ph.untracedCPU),
			"decided_share": j.share(), "heap_mb": heap,
		}),
	}, nil
}

// cellTimes collects each cell's wall times across passes, keyed by cell.
type cellTimes map[int][]float64

func (c cellTimes) add(key int, d time.Duration) { c[key] = append(c[key], durMS(d)) }

// geomean is the geometric mean over cells of each cell's median time.
func (c cellTimes) geomean() float64 {
	meds := make([]float64, 0, len(c))
	for _, ms := range c {
		meds = append(meds, median(ms))
	}
	return geomean(meds)
}

func (j *paperJudge) share() float64 {
	if j.attempted == 0 {
		return 0
	}
	return float64(j.decided) / float64(j.attempted)
}

func (j *paperJudge) print(w io.Writer, workload string) {
	for _, n := range j.notes {
		fmt.Fprintf(w, "%s: %s\n", workload, n)
	}
}

// compareBench4 prints the last traced pass's per-cell SMT queries and
// times beside the matching cells of BENCH_4.json (same task, method and
// occurrence order). Informational only.
func compareBench4(w io.Writer, root string, runs []*cellRun) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCH_4.json"))
	if err != nil {
		return
	}
	var old struct {
		Cells []struct {
			Task    string  `json:"task"`
			Method  string  `json:"method"`
			Seconds float64 `json:"seconds"`
			Queries int64   `json:"queries"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(raw, &old); err != nil {
		return
	}
	type key struct {
		task, method string
		nth          int
	}
	seen := map[string]int{}
	oldAt := map[key]int{}
	for i, c := range old.Cells {
		k := c.Task + "|" + c.Method
		oldAt[key{c.Task, c.Method, seen[k]}] = i
		seen[k]++
	}
	sorted := append([]*cellRun(nil), runs...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].cell.idx < sorted[b].cell.idx })
	fmt.Fprintf(w, "bench4 %-44s %8s %8s %9s %9s\n", "cell (suite order)", "queries", "BENCH_4", "seconds", "BENCH_4")
	seen = map[string]int{}
	for _, r := range sorted {
		k := r.cell.task.Name + "|" + r.cell.method.String()
		i, ok := oldAt[key{r.cell.task.Name, r.cell.method.String(), seen[k]}]
		seen[k]++
		if !ok {
			fmt.Fprintf(w, "bench4 %-44s %8d %8s %9.3f %9s\n", r.cell, r.eng.queries, "-", r.wall.Seconds(), "-")
			continue
		}
		c := old.Cells[i]
		fmt.Fprintf(w, "bench4 %-44s %8d %8d %9.3f %9.3f\n", r.cell, r.eng.queries, c.Queries, r.wall.Seconds(), c.Seconds)
	}
}
