package fixpoint

import (
	"testing"

	"repro/internal/optimal"
	"repro/internal/smt"
)

func newEngineWith(opts smt.Options) *optimal.Engine {
	return optimal.New(smt.NewSolver(opts))
}

// TestFixpointDeterministicWithContexts: two runs of the same fixpoint with
// incremental contexts enabled must walk the same candidate sequence and land
// on the identical invariant — incremental state (learnt clauses, lemmas,
// cores) may only change speed, never verdicts, and hence never the search.
func TestFixpointDeterministicWithContexts(t *testing.T) {
	type outcome struct {
		key   string
		found bool
		steps int
	}
	run := func(forward bool) outcome {
		p := arrayInitProblem()
		eng := newEngine()
		var res Result
		var err error
		if forward {
			res, err = LeastFixedPoint(p, eng, Options{})
		} else {
			res, err = GreatestFixedPoint(p, eng, Options{})
		}
		if err != nil {
			t.Fatal(err)
		}
		if eng.S.NumAssumptionProbes() == 0 {
			t.Fatal("default solver decided no probe incrementally")
		}
		o := outcome{found: res.Found(), steps: res.Steps}
		if res.Found() {
			o.key = res.Solution.Key()
		}
		return o
	}
	for _, dir := range []struct {
		name    string
		forward bool
	}{{"LFP", true}, {"GFP", false}} {
		a := run(dir.forward)
		b := run(dir.forward)
		if a != b {
			t.Errorf("%s not deterministic: run1=%+v run2=%+v", dir.name, a, b)
		}
	}
}

// TestFixpointIncrementalVsFromScratch: with and without contexts the
// fixpoints must find the same invariant — the incremental machinery is a
// pure optimization.
func TestFixpointIncrementalVsFromScratch(t *testing.T) {
	run := func(opts smt.Options, forward bool) (string, bool) {
		p := arrayInitProblem()
		eng := newEngineWith(opts)
		var res Result
		var err error
		if forward {
			res, err = LeastFixedPoint(p, eng, Options{})
		} else {
			res, err = GreatestFixedPoint(p, eng, Options{})
		}
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found() {
			return "", false
		}
		return res.Solution.Key(), true
	}
	for _, dir := range []struct {
		name    string
		forward bool
	}{{"LFP", true}, {"GFP", false}} {
		incKey, incFound := run(smt.Options{}, dir.forward)
		rawKey, rawFound := run(smt.Options{NoIncremental: true}, dir.forward)
		if incFound != rawFound || incKey != rawKey {
			t.Errorf("%s diverged: incremental=(%v,%q) from-scratch=(%v,%q)",
				dir.name, incFound, incKey, rawFound, rawKey)
		}
	}
}
