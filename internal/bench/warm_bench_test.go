package bench

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/store"
)

// warmArm is one lifetime of the warm-restart benchmark: the suite's
// measurements against one on-disk knowledge store, and whether that store
// opened cold and how many records it loaded.
type warmArm struct {
	cells     [][]Measurement
	coldStart bool
	loaded    int64
}

// work sums the arm's from-scratch solving work (SMT queries plus
// Fourier–Motzkin eliminations) and its store hits.
func (a warmArm) work() (queries, fm, hits int64) {
	for _, ms := range a.cells {
		for _, m := range ms {
			queries += m.Queries
			fm += m.FMScratch + m.FMIncremental
			hits += m.StoreHits
		}
	}
	return queries, fm, hits
}

// runWarmArm opens the knowledge store in dir, runs the tasks against it,
// and closes the store (flushing the write-behind queue, as a drained daemon
// would). Every cell is a fresh Verifier sharing the one store — the serving
// pool's shape.
func runWarmArm(t *testing.T, dir string, tasks []Task) warmArm {
	t.Helper()
	cfg := core.Config{}
	st, err := store.Open(dir, store.Options{Params: cfg.SMT.StoreParams()})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Knowledge = st
	r := &Runner{Timeout: 2 * time.Minute, Stats: stats.New(), Config: cfg, Parallel: runtime.GOMAXPROCS(0)}
	arm := warmArm{cells: r.RunAll(tasks)}
	ss := st.Stats()
	arm.coldStart = ss.ColdStart
	arm.loaded = ss.LoadedLemmas + ss.LoadedCores + ss.LoadedVerdicts + ss.LoadedConsistency + ss.LoadedOutcomes
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for _, ms := range arm.cells {
		for _, m := range ms {
			if m.Err != nil {
				t.Fatalf("%s/%s: %v", m.Task, m.Method, m.Err)
			}
		}
	}
	return arm
}

// TestWarmBench is the warm-restart gate: the default suite run cold on a
// fresh knowledge store, then again reopening the same store — a daemon
// restart. The warm lifetime must prove exactly what the cold one proved
// with at least 5x less from-scratch work (SMT queries + Fourier–Motzkin
// eliminations); in fact it must do none at all, every cell answering from
// the store.
func TestWarmBench(t *testing.T) {
	if testing.Short() {
		t.Skip("warm-restart benchmark is not a -short test")
	}
	dir := t.TempDir()
	cold := runWarmArm(t, dir, DefaultSuite())
	warm := runWarmArm(t, dir, DefaultSuite())
	if !cold.coldStart {
		t.Error("first lifetime did not report a cold store")
	}
	if warm.coldStart {
		t.Error("second lifetime reported a cold store: nothing persisted or load failed")
	}
	if warm.loaded == 0 {
		t.Error("warm lifetime loaded zero records")
	}
	for ti := range cold.cells {
		for mi, c := range cold.cells[ti] {
			if w := warm.cells[ti][mi]; c.Proved != w.Proved {
				t.Errorf("%s/%s: cold proved=%v, warm proved=%v", c.Task, c.Method, c.Proved, w.Proved)
			}
		}
	}
	coldQ, coldFM, _ := cold.work()
	warmQ, warmFM, warmHits := warm.work()
	coldWork, warmWork := coldQ+coldFM, warmQ+warmFM
	t.Logf("cold: work=%d (q=%d fm=%d)", coldWork, coldQ, coldFM)
	t.Logf("warm: work=%d (q=%d fm=%d) store hits=%d, loaded %d records", warmWork, warmQ, warmFM, warmHits, warm.loaded)
	if warmWork*5 > coldWork {
		t.Errorf("warm restart did not cut from-scratch work >=5x: cold %d vs warm %d", coldWork, warmWork)
	}
	if warmWork != 0 {
		t.Errorf("warm restart did %d from-scratch work, want 0", warmWork)
	}
	if warmHits == 0 {
		t.Error("warm lifetime answered nothing from the store")
	}
}

// TestWarmVsCompactedExamples is the compaction arm of the verdict-identity
// sweep behind `make test-differential`: every examples/ problem is solved
// cold on a fresh store, the log is compacted to a new generation, and a
// lifetime over the compacted store must agree exactly with the cold one —
// same verdicts, same inferred precondition sets — while answering from the
// store (compaction must lose no live knowledge).
func TestWarmVsCompactedExamples(t *testing.T) {
	if testing.Short() {
		t.Skip("examples warm/compacted sweep skipped in -short mode (run via make test-differential)")
	}
	for _, cell := range exampleCells {
		cell := cell
		t.Run(cell.name, func(t *testing.T) {
			dir := t.TempDir()
			lifetime := func() (verdicts []bool, pres []string, loaded int64) {
				cfg := core.Config{}
				st, err := store.Open(dir, store.Options{Params: cfg.SMT.StoreParams(), Logf: t.Logf})
				if err != nil {
					t.Fatalf("store.Open: %v", err)
				}
				ss := st.Stats()
				loaded = ss.LoadedLemmas + ss.LoadedCores + ss.LoadedVerdicts + ss.LoadedConsistency + ss.LoadedOutcomes
				defer func() {
					if err := st.Close(); err != nil {
						t.Fatalf("store.Close: %v", err)
					}
				}()
				cfg.Knowledge = st
				v := core.New(cfg)
				if cell.methods == nil {
					ps, _, err := v.InferPreconditions(cell.build())
					if err != nil {
						t.Fatal(err)
					}
					for _, p := range ps {
						pres = append(pres, p.Pre.String())
					}
					return nil, pres, loaded
				}
				for _, m := range cell.methods {
					o, err := v.Verify(cell.build(), m)
					if err != nil {
						t.Fatal(err)
					}
					verdicts = append(verdicts, o.Proved)
				}
				return verdicts, nil, loaded
			}

			coldV, coldP, _ := lifetime()

			st, err := store.Open(dir, store.Options{Params: core.Config{}.SMT.StoreParams(), Logf: t.Logf})
			if err != nil {
				t.Fatalf("reopen for compaction: %v", err)
			}
			reclaimed, err := st.Compact()
			if cerr := st.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				t.Fatalf("compact: %v", err)
			}
			t.Logf("compacted: reclaimed %d bytes", reclaimed)

			warmV, warmP, warmLoaded := lifetime()
			if len(coldV) != len(warmV) {
				t.Fatalf("verdict count changed: %d vs %d", len(coldV), len(warmV))
			}
			for i := range coldV {
				if coldV[i] != warmV[i] {
					t.Errorf("method %v: cold proved=%v, compacted-warm proved=%v", cell.methods[i], coldV[i], warmV[i])
				}
			}
			if len(coldP) != len(warmP) {
				t.Fatalf("precondition count changed: cold %v vs compacted-warm %v", coldP, warmP)
			}
			seen := map[string]bool{}
			for _, p := range coldP {
				seen[p] = true
			}
			for _, p := range warmP {
				if !seen[p] {
					t.Errorf("compacted-warm lifetime inferred precondition %q absent from cold set %v", p, coldP)
				}
			}
			if warmLoaded == 0 {
				t.Error("compacted store loaded zero records; compaction dropped live knowledge")
			}
		})
	}
}

// TestWarmVsColdExamples is the verdict-identity differential sweep behind
// `make test-differential`: every examples/ problem is solved cold on a
// fresh store, then again on a reopened store, and the two lifetimes must
// agree exactly — same verdicts, same inferred precondition sets.
func TestWarmVsColdExamples(t *testing.T) {
	if testing.Short() {
		t.Skip("examples warm/cold sweep skipped in -short mode (run via make test-differential)")
	}
	for _, cell := range exampleCells {
		cell := cell
		t.Run(cell.name, func(t *testing.T) {
			dir := t.TempDir()
			lifetime := func() (verdicts []bool, pres []string) {
				cfg := core.Config{}
				st, err := store.Open(dir, store.Options{Params: cfg.SMT.StoreParams(), Logf: t.Logf})
				if err != nil {
					t.Fatalf("store.Open: %v", err)
				}
				defer func() {
					if err := st.Close(); err != nil {
						t.Fatalf("store.Close: %v", err)
					}
				}()
				cfg.Knowledge = st
				v := core.New(cfg)
				if cell.methods == nil {
					ps, _, err := v.InferPreconditions(cell.build())
					if err != nil {
						t.Fatal(err)
					}
					for _, p := range ps {
						pres = append(pres, p.Pre.String())
					}
					return nil, pres
				}
				for _, m := range cell.methods {
					o, err := v.Verify(cell.build(), m)
					if err != nil {
						t.Fatal(err)
					}
					verdicts = append(verdicts, o.Proved)
				}
				return verdicts, nil
			}

			coldV, coldP := lifetime()
			warmV, warmP := lifetime()
			if len(coldV) != len(warmV) {
				t.Fatalf("verdict count changed: %d vs %d", len(coldV), len(warmV))
			}
			for i := range coldV {
				if coldV[i] != warmV[i] {
					t.Errorf("method %v: cold proved=%v, warm proved=%v", cell.methods[i], coldV[i], warmV[i])
				}
			}
			if len(coldP) != len(warmP) {
				t.Fatalf("precondition count changed: cold %v vs warm %v", coldP, warmP)
			}
			seen := map[string]bool{}
			for _, p := range coldP {
				seen[p] = true
			}
			for _, p := range warmP {
				if !seen[p] {
					t.Errorf("warm lifetime inferred precondition %q absent from cold set %v", p, coldP)
				}
			}
		})
	}
}
