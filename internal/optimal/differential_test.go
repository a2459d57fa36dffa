package optimal

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/logic"
	"repro/internal/optimal/optimaltest"
	"repro/internal/smt"
	"repro/internal/template"
)

// randAtom draws a difference-fragment atom (x − y ▷◁ k or x ▷◁ k), the
// fragment every benchmark vocabulary lives in.
func randAtom(rng *rand.Rand) logic.Formula {
	vars := []string{"x", "y", "z"}
	ops := []logic.RelOp{logic.Eq, logic.Lt, logic.Le, logic.Gt, logic.Ge}
	lhs := logic.Term(logic.V(vars[rng.Intn(len(vars))]))
	rhs := logic.Term(logic.I(int64(rng.Intn(5) - 2)))
	if rng.Intn(2) == 0 {
		rhs = logic.Plus(logic.V(vars[rng.Intn(len(vars))]), rhs)
	}
	return logic.Rel(ops[rng.Intn(len(ops))], lhs, rhs)
}

// TestMapVsBFSRandomLattice cross-checks the map-solver-guided enumeration
// against the independent BFS reference (optimaltest) on hundreds of
// randomized small lattices: random targets, random vocabularies, one or two
// negative unknowns sharing a group. Each trial gets fresh solvers — the
// reference arm's engine answers every group search from optimaltest on a
// solver of its own — and the optimal solution lists must be equal, order
// included.
func TestMapVsBFSRandomLattice(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	var groups int64
	for trial := 0; trial < 200; trial++ {
		// One or two unknowns in the antecedent keep them in one
		// unknown-connected group, the unit the group search enumerates.
		nUnknowns := 1 + rng.Intn(2)
		q := template.Domain{}
		ante := []logic.Formula{}
		for u := 0; u < nUnknowns; u++ {
			name := fmt.Sprintf("u%d", u)
			n := 2 + rng.Intn(4)
			preds := make([]logic.Formula, n)
			for i := range preds {
				preds[i] = randAtom(rng)
			}
			q[name] = preds
			ante = append(ante, logic.Unknown{Name: name})
		}
		if rng.Intn(2) == 0 {
			ante = append(ante, randAtom(rng))
		}
		phi := logic.Imp(logic.Conj(ante...), randAtom(rng))

		mapEng := New(smt.NewSolver(smt.Options{}))
		refEng := New(smt.NewSolver(smt.Options{}))
		ref := &optimaltest.Checker{S: smt.NewSolver(smt.Options{}), MaxDepth: 4, MaxSolutions: 64, Replace: true}
		refEng.Opts.GroupSearch = ref.Search
		mapSols := optimaltest.Keys(mapEng.OptimalNegativeSolutions(phi, q))
		refSols := optimaltest.Keys(refEng.OptimalNegativeSolutions(phi, q))
		if mapSols != refSols {
			t.Fatalf("trial %d: solutions differ on %v over %v\nmap: %s\nref: %s", trial, phi, q, mapSols, refSols)
		}
		groups += ref.Groups.Load()
	}
	if groups == 0 {
		t.Fatal("the reference answered no group search; sweep vacuous")
	}
}

// TestMapVsBFSSharedEngine repeats the cross-check on a single engine
// through the GroupSearch seam: every group search runs the map search
// against the engine's accumulated core store, consistency memo and
// incremental contexts, and the reference on its own fresh solver must
// return the same solution list.
func TestMapVsBFSSharedEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	eng := New(smt.NewSolver(smt.Options{}))
	cc := &optimaltest.Checker{S: smt.NewSolver(smt.Options{}), MaxDepth: 4, MaxSolutions: 64, Errorf: t.Errorf}
	eng.Opts.GroupSearch = cc.Search
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(4)
		preds := make([]logic.Formula, n)
		for i := range preds {
			preds[i] = randAtom(rng)
		}
		q := template.Domain{"u": preds}
		var ante logic.Formula = logic.Unknown{Name: "u"}
		if rng.Intn(2) == 0 {
			ante = logic.Conj(ante, randAtom(rng))
		}
		eng.OptimalNegativeSolutions(logic.Imp(ante, randAtom(rng)), q)
	}
	if cc.Groups.Load() == 0 {
		t.Fatal("GroupSearch seam never fired")
	}
}
