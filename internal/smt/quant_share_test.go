package smt

import (
	"testing"

	"repro/internal/logic"
	"repro/internal/logic/logictest"
)

// preSkolem runs the preprocessing chain up to skolemization, as
// normalizeForSolving does; ok is false when it folds to a constant.
func preSkolem(f logic.Formula) (logic.Formula, bool) {
	f = logic.Simplify(logic.RewriteArrayEq(f, logic.NewNamer("@q")))
	if _, ok := f.(logic.Bool); ok {
		return nil, false
	}
	return logic.StandardizeApart(logic.NNF(f), logic.NewNamer("@b")), true
}

// TestQuantDifferential compares the structure-sharing skolemize and
// instantiate with their rebuild-everything oracles over seeded random
// formulas: identical skolemized formulas and Namer counters, identical
// ground instances over two instantiation rounds, and the same final
// Simplify.
func TestQuantDifferential(t *testing.T) {
	seeds := int64(1500)
	if testing.Short() {
		seeds = 400
	}
	for seed := int64(0); seed < seeds; seed++ {
		in, ok := preSkolem(logictest.New(seed, logictest.Options{ArrayEq: true, MaxWidth: 4}).Formula(4))
		if !ok {
			continue
		}
		gn, wn := logic.NewNamer("@sk"), logic.NewNamer("@sk")
		f, want := skolemize(in, gn), oracleSkolemize(in, nil, wn)
		if !logic.FormulaStructEq(f, want) {
			t.Fatalf("seed %d: skolemize(%s)\n got  %s\n want %s", seed, in, f, want)
		}
		if g, w := gn.Fresh(), wn.Fresh(); g != w {
			t.Fatalf("seed %d: skolemize(%s): namer at %s, oracle at %s", seed, in, g, w)
		}
		bound := boundVarNames(f)
		ground, wantGround := f, f
		for round := 0; round < 2; round++ {
			var both logic.Formula = f
			if round > 0 {
				both = logic.And{Fs: []logic.Formula{f, ground}}
			}
			env := &instEnv{
				fallback:     collectInstTerms(both, bound),
				arrIndices:   groundArrayIndices(both, bound),
				maxInstances: 16,
			}
			ground, _ = env.instantiate(f)
			wantGround = oracleInstantiate(f, env)
			if !logic.FormulaStructEq(ground, wantGround) {
				t.Fatalf("seed %d round %d: instantiate(%s)\n got  %s\n want %s", seed, round, f, ground, wantGround)
			}
		}
		if g, w := logic.Simplify(ground), logic.Simplify(wantGround); !logic.FormulaStructEq(g, w) {
			t.Fatalf("seed %d: Simplify(ground)\n got  %s\n want %s", seed, g, w)
		}
	}
}

// TestQuantZeroAlloc asserts that skolemize on an existential-free formula
// and instantiate on a quantifier-free one return their input without
// allocating.
func TestQuantZeroAlloc(t *testing.T) {
	env := &instEnv{fallback: []logic.Term{logic.I(0)}, maxInstances: 16}
	nm := logic.NewNamer("@sk")
	for seed := int64(0); seed < 300; seed++ {
		in, ok := preSkolem(logictest.New(seed, logictest.Options{ArrayEq: true}).Formula(4))
		if !ok {
			continue
		}
		sk := skolemize(in, nm)
		if allocs := testing.AllocsPerRun(3, func() { skolemize(sk, nm) }); allocs != 0 {
			t.Fatalf("seed %d: skolemize(%s) allocated %.1f times on an existential-free input", seed, sk, allocs)
		}
		if len(boundVarNames(sk)) > 0 {
			continue
		}
		if allocs := testing.AllocsPerRun(3, func() { env.instantiate(sk) }); allocs != 0 {
			t.Fatalf("seed %d: instantiate(%s) allocated %.1f times on a quantifier-free input", seed, sk, allocs)
		}
	}
}
