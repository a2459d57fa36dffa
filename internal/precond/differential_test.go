package precond

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fixpoint"
	"repro/internal/lang"
	"repro/internal/logic"
	"repro/internal/optimal"
	"repro/internal/optimal/optimaltest"
	"repro/internal/smt"
	"repro/internal/spec"
	"repro/internal/template"
)

// randAtom draws a small comparison atom over the given variables — the
// difference fragment every benchmark vocabulary lives in.
func randAtom(rng *rand.Rand, vars []string) logic.Formula {
	ops := []string{"=", "<", "<=", ">", ">="}
	lhs := vars[rng.Intn(len(vars))]
	k := rng.Intn(5) - 2
	if rng.Intn(2) == 0 {
		return lang.MustParseFormula(fmt.Sprintf("%s %s %d", lhs, ops[rng.Intn(len(ops))], k))
	}
	rhs := vars[rng.Intn(len(vars))]
	return lang.MustParseFormula(fmt.Sprintf("%s %s %s + %d", lhs, ops[rng.Intn(len(ops))], rhs, k))
}

// randProblem builds a random loop-free precondition-inference task: one
// assignment, one assertion, an entry template over a random vocabulary.
// Loop-free tasks keep each trial fast while still exercising the full §6
// pipeline (exhaustive GFP + extremal filtering).
func randProblem(rng *rand.Rand) *spec.Problem {
	c := rng.Intn(5) - 2
	prog := lang.MustParse(fmt.Sprintf(`
		program T(x, y) {
			x := x + %d;
			assert(%s);
		}`, c, randAtom(rng, []string{"x", "y"})))
	n := 2 + rng.Intn(3)
	preds := make([]logic.Formula, n)
	for i := range preds {
		preds[i] = randAtom(rng, []string{"x", "y"})
	}
	return &spec.Problem{
		Prog:      prog,
		Templates: map[string]logic.Formula{"entry": logic.Unknown{Name: "pre"}},
		Q:         template.Domain{"pre": preds},
	}
}

// equivalentSets reports whether two precondition sets are equal modulo
// logical equivalence: same size after the enumerators' own dedup, and every
// member of one side has an equivalent member on the other.
func equivalentSets(s *smt.Solver, a, b []Precondition) bool {
	if len(a) != len(b) {
		return false
	}
	for _, pa := range a {
		found := false
		for _, pb := range b {
			if s.Valid(logic.Imp(pa.Pre, pb.Pre)) && s.Valid(logic.Imp(pb.Pre, pa.Pre)) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// refEngine returns an engine whose every group search is answered by the
// independent BFS reference (optimaltest) on a solver of its own, and the
// seam, which counts those searches.
func refEngine() (*optimal.Engine, *optimaltest.Checker) {
	eng := newEngine()
	ref := &optimaltest.Checker{S: smt.NewSolver(smt.Options{}), MaxDepth: 4, MaxSolutions: 64, Replace: true}
	eng.Opts.GroupSearch = ref.Search
	return eng, ref
}

// TestMapVsBFSPreconditions is the §6 leg of the differential sweep
// (`make test-differential`): the map-solver-guided enumeration and the
// independent BFS reference must produce the same maximally-weak
// precondition sets — as sets, modulo logical equivalence — on randomized
// tasks. The §6 pipeline
// leans on the enumerators harder than plain verification does (Options.All
// exhausts every fixed point, then filterExtremal compares them pairwise),
// so an enumeration discrepancy that plain verification masks shows up here
// as a missing or extra precondition.
func TestMapVsBFSPreconditions(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized §6 differential sweep skipped in -short mode (run via make test-differential)")
	}
	rng := rand.New(rand.NewSource(71))
	cmp := smt.NewSolver(smt.Options{})
	nonEmpty := 0
	var groups int64
	for trial := 0; trial < 60; trial++ {
		p := randProblem(rng)
		mapEng := newEngine()
		bfsEng, ref := refEngine()

		mapPres, mapEnum, err := MaximallyWeak(p, mapEng, fixpoint.Options{})
		if err != nil {
			t.Fatalf("trial %d (map): %v", trial, err)
		}
		bfsPres, bfsEnum, err := MaximallyWeak(p, bfsEng, fixpoint.Options{})
		if err != nil {
			t.Fatalf("trial %d (bfs): %v", trial, err)
		}
		if mapEnum.Truncated || mapEnum.Aborted || bfsEnum.Truncated || bfsEnum.Aborted {
			t.Fatalf("trial %d: incomplete enumeration (map %+v, bfs %+v)", trial, mapEnum, bfsEnum)
		}
		if !equivalentSets(cmp, mapPres, bfsPres) {
			t.Errorf("trial %d: precondition sets differ\n  map: %v\n  bfs: %v\n  problem: %s",
				trial, renderPres(mapPres), renderPres(bfsPres), p.Prog)
		}
		if len(mapPres) > 0 {
			nonEmpty++
		}
		groups += ref.Groups.Load()
	}
	if groups == 0 {
		t.Error("the reference answered no group search; sweep vacuous")
	}
	if nonEmpty == 0 {
		t.Error("every trial produced an empty precondition set; sweep vacuous")
	}
	t.Logf("%d/60 trials produced preconditions", nonEmpty)
}

// TestMapVsBFSGuardedInit pins the sweep's property on the package's
// canonical loopy task, so the loop/quantifier path is differentially
// covered too (the randomized trials stay loop-free for speed).
func TestMapVsBFSGuardedInit(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep skipped in -short mode")
	}
	mapEng := newEngine()
	bfsEng, ref := refEngine()
	mapPres, _, err := MaximallyWeak(guardedInit(), mapEng, fixpoint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bfsPres, _, err := MaximallyWeak(guardedInit(), bfsEng, fixpoint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(mapPres) == 0 {
		t.Fatal("no preconditions found")
	}
	if ref.Groups.Load() == 0 {
		t.Error("the reference answered no group search")
	}
	if !equivalentSets(mapEng.S, mapPres, bfsPres) {
		t.Errorf("precondition sets differ\n  map: %v\n  bfs: %v",
			renderPres(mapPres), renderPres(bfsPres))
	}
}

func renderPres(pres []Precondition) []string {
	out := make([]string, len(pres))
	for i, p := range pres {
		out[i] = p.Pre.String()
	}
	return out
}
