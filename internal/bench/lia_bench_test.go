package bench

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/smt"
	"repro/internal/stats"
)

// Known inductive invariants for the scaled family, checked semantically so a
// search regression is distinguishable from a wrong benchmark definition.

func TestScaledInitKnownInvariant(t *testing.T) {
	checkKnown(t, ScaledInit(), knownSolution(map[string][]string{
		"v0": {"j <= 2*i", "j >= 2*i"},
		"v1": {"0 <= k", "k < i"},
	}))
}

func TestDoubleStrideKnownInvariant(t *testing.T) {
	checkKnown(t, DoubleStride(), knownSolution(map[string][]string{
		"v0": {"j <= 2*i", "j >= 2*i", "i <= n"},
	}))
}

func TestHalfBoundKnownInvariant(t *testing.T) {
	checkKnown(t, HalfBound(), knownSolution(map[string][]string{
		"v0": {"n >= 2*i - 1"},
	}))
}

// TestLIANoDormancy is the dormancy regression for the tentpole: solving the
// non-unit-coefficient family must keep every persistent context live (the
// general-LIA checker handles what used to trigger dormancy) and must route
// theory checks through it.
func TestLIANoDormancy(t *testing.T) {
	for _, task := range LIATasks() {
		v := core.New(core.Config{})
		o, err := v.Verify(task.Build(), core.LFP)
		if err != nil {
			t.Fatalf("%s: %v", task.Name, err)
		}
		if !o.Proved {
			t.Errorf("%s: not proved", task.Name)
		}
		s := v.Engine().S
		if s.NumContexts() == 0 {
			t.Errorf("%s: no persistent context created", task.Name)
		}
		if n := s.NumDormantContexts(); n != 0 {
			t.Errorf("%s: %d contexts went dormant; want 0", task.Name, n)
		}
		if s.NumFMIncremental()+s.NumFMCubeHits() == 0 {
			t.Errorf("%s: no theory check went through the persistent general-LIA checker", task.Name)
		}
	}
}

// runLIAArm runs the scaled family under cfg, failing the test on any cell
// error, and returns the measurements with the summed cell time.
func runLIAArm(t *testing.T, cfg core.Config) ([][]Measurement, time.Duration) {
	t.Helper()
	r := &Runner{Config: cfg, Stats: stats.New(), Timeout: 2 * time.Minute}
	results := r.RunAll(LIATasks())
	for _, ms := range results {
		for _, m := range ms {
			if m.Err != nil {
				t.Fatalf("%s/%s: %v", m.Task, m.Method, m.Err)
			}
		}
	}
	return results, r.CellTime()
}

// TestLIABench is the incremental-FM gate: cold (NoIncremental, every
// general-LIA theory check a from-scratch elimination) versus incremental
// (persistent LinChecker per context) on the scaled family, with identical
// verdicts per cell, no dormant context, and a ≥3x reduction in
// from-scratch eliminations.
func TestLIABench(t *testing.T) {
	if testing.Short() {
		t.Skip("LIA benchmark is not a -short test")
	}
	inc, incTime := runLIAArm(t, core.Config{})
	cold, coldTime := runLIAArm(t, core.Config{SMT: smt.Options{NoIncremental: true}})

	var incScratch, incRuns, coldScratch, dormant int64
	for ti := range inc {
		for mi, a := range inc[ti] {
			b := cold[ti][mi]
			if a.Proved != b.Proved {
				t.Errorf("%s/%s: incremental proved=%v, from-scratch proved=%v", a.Task, a.Method, a.Proved, b.Proved)
			}
			if !a.Proved {
				t.Errorf("%s/%s: not proved", a.Task, a.Method)
			}
			incScratch += a.FMScratch
			incRuns += a.FMIncremental
			coldScratch += b.FMScratch
			dormant += a.DormantContexts
		}
	}
	if dormant != 0 {
		t.Errorf("incremental arm sent %d contexts dormant; want 0", dormant)
	}
	t.Logf("incremental: fm_scratch=%d fm_incremental=%d cells=%.2fs", incScratch, incRuns, incTime.Seconds())
	t.Logf("from-scratch: fm_scratch=%d cells=%.2fs", coldScratch, coldTime.Seconds())
	if incScratch*3 > coldScratch {
		t.Errorf("from-scratch eliminations not reduced >=3x: incremental %d vs cold %d", incScratch, coldScratch)
	}
	if incTime >= coldTime {
		t.Logf("warning: incremental cell time %.2fs not below from-scratch %.2fs on this run",
			incTime.Seconds(), coldTime.Seconds())
	}
}
