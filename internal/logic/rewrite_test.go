package logic_test

import (
	"fmt"
	"testing"

	"repro/internal/logic"
	"repro/internal/logic/logictest"
)

// outcome is a rewrite's result or the panic it raised.
type outcome struct {
	f     logic.Formula
	t     logic.Term
	a     logic.Arr
	panic any
}

func run(fn func() outcome) (o outcome) {
	defer func() {
		if p := recover(); p != nil {
			o = outcome{panic: p}
		}
	}()
	return fn()
}

// sameOutcome reports whether two outcomes are structurally identical
// results, or both panics.
func sameOutcome(got, want outcome) bool {
	switch {
	case got.panic != nil || want.panic != nil:
		return got.panic != nil && want.panic != nil
	case want.f != nil:
		return got.f != nil && logic.FormulaStructEq(got.f, want.f)
	case want.t != nil:
		return got.t != nil && logic.TermStructEq(got.t, want.t)
	}
	return got.a != nil && logic.ArrStructEq(got.a, want.a)
}

func describe(o outcome) string {
	switch {
	case o.panic != nil:
		return fmt.Sprintf("panic(%v)", o.panic)
	case o.f != nil:
		return o.f.String()
	case o.t != nil:
		return o.t.String()
	case o.a != nil:
		return o.a.String()
	}
	return "<nil>"
}

// TestRewriteDifferential compares Conj/Disj and every structure-sharing
// rewrite with its rebuild-everything oracle over seeded random formulas,
// terms and array terms, then again on the rewrite's own output (where
// sharing returns inputs unchanged). Namers must end on the same counter.
func TestRewriteDifferential(t *testing.T) {
	seeds := int64(3000)
	if testing.Short() {
		seeds = 800
	}
	all := logictest.Options{Unknowns: true, ArrayEq: true}
	plain := logictest.Options{}
	check := func(t *testing.T, seed int64, name string, input fmt.Stringer, got, want func() outcome) {
		t.Helper()
		g, w := run(got), run(want)
		if !sameOutcome(g, w) {
			t.Fatalf("seed %d: %s(%s)\n got  %s\n want %s", seed, name, input, describe(g), describe(w))
		}
	}
	// namerCheck runs a Namer-consuming rewrite and its oracle on fresh
	// namers and compares both the formulas and the next fresh name.
	namerCheck := func(t *testing.T, seed int64, name string, f logic.Formula,
		got, want func(logic.Formula, *logic.Namer) logic.Formula) {
		t.Helper()
		gn, wn := logic.NewNamer("@n"), logic.NewNamer("@n")
		check(t, seed, name, f,
			func() outcome { return outcome{f: got(f, gn)} },
			func() outcome { return outcome{f: want(f, wn)} })
		if g, w := gn.Fresh(), wn.Fresh(); g != w {
			t.Fatalf("seed %d: %s(%s): namer at %s, oracle at %s", seed, name, f, g, w)
		}
	}

	t.Run("ConjDisj", func(t *testing.T) {
		for seed := int64(0); seed < seeds; seed++ {
			g := logictest.New(seed, all)
			fs := g.Operands(3)
			in := logic.And{Fs: fs}
			check(t, seed, "Conj", in,
				func() outcome { return outcome{f: logic.Conj(fs...)} },
				func() outcome { return outcome{f: oracleConj(fs...)} })
			check(t, seed, "Disj", in,
				func() outcome { return outcome{f: logic.Disj(fs...)} },
				func() outcome { return outcome{f: oracleDisj(fs...)} })
			check(t, seed, "ConjOwned", in,
				func() outcome { return outcome{f: logic.ConjOwned(append([]logic.Formula(nil), fs...))} },
				func() outcome { return outcome{f: oracleConj(fs...)} })
			check(t, seed, "DisjOwned", in,
				func() outcome { return outcome{f: logic.DisjOwned(append([]logic.Formula(nil), fs...))} },
				func() outcome { return outcome{f: oracleDisj(fs...)} })
		}
	})
	t.Run("Simplify", func(t *testing.T) {
		for seed := int64(0); seed < seeds; seed++ {
			f := logictest.New(seed, all).Formula(5)
			for _, in := range []logic.Formula{f, logic.Simplify(f), oracleSimplify(f)} {
				check(t, seed, "Simplify", in,
					func() outcome { return outcome{f: logic.Simplify(in)} },
					func() outcome { return outcome{f: oracleSimplify(in)} })
			}
		}
	})
	t.Run("NNF", func(t *testing.T) {
		for seed := int64(0); seed < seeds; seed++ {
			opts := plain
			if seed%10 == 0 {
				opts = all // both must reject unknowns and array equalities
			}
			f := logictest.New(seed, opts).Formula(5)
			for _, in := range []logic.Formula{f, run(func() outcome { return outcome{f: oracleNNF(f)} }).f} {
				if in == nil {
					continue
				}
				check(t, seed, "NNF", in,
					func() outcome { return outcome{f: logic.NNF(in)} },
					func() outcome { return outcome{f: oracleNNF(in)} })
			}
		}
	})
	t.Run("StandardizeApart", func(t *testing.T) {
		for seed := int64(0); seed < seeds; seed++ {
			opts := logictest.Options{ArrayEq: true}
			if seed%10 == 0 {
				opts = all
			}
			f := logictest.New(seed, opts).Formula(5)
			namerCheck(t, seed, "StandardizeApart", f, logic.StandardizeApart, oracleStandardizeApart)
		}
	})
	t.Run("RewriteArrayEq", func(t *testing.T) {
		for seed := int64(0); seed < seeds; seed++ {
			f := logictest.New(seed, all).Formula(5)
			namerCheck(t, seed, "RewriteArrayEq", f, logic.RewriteArrayEq, oracleRewriteArrayEq)
			r := oracleRewriteArrayEq(f, logic.NewNamer("@n"))
			namerCheck(t, seed, "RewriteArrayEq", r, logic.RewriteArrayEq, oracleRewriteArrayEq)
		}
	})
	t.Run("Substitute", func(t *testing.T) {
		for seed := int64(0); seed < seeds; seed++ {
			g := logictest.New(seed, all)
			f := g.Formula(5)
			sub, asub := g.Subst()
			subs := []struct {
				sub  map[string]logic.Term
				asub map[string]logic.Arr
			}{{sub, asub}, {nil, nil}, {sub, nil}, {nil, asub}}
			for _, s := range subs {
				for _, in := range []logic.Formula{f, oracleSubstitute(f, s.sub, s.asub)} {
					check(t, seed, "Substitute", in,
						func() outcome { return outcome{f: logic.Substitute(in, s.sub, s.asub)} },
						func() outcome { return outcome{f: oracleSubstitute(in, s.sub, s.asub)} })
				}
				tm, arr := g.Term(4), g.Arr(3)
				check(t, seed, "SubstituteTerm", tm,
					func() outcome { return outcome{t: logic.SubstituteTerm(tm, s.sub, s.asub)} },
					func() outcome { return outcome{t: oracleSubstituteTerm(tm, s.sub, s.asub)} })
				check(t, seed, "SubstituteArr", arr,
					func() outcome { return outcome{a: logic.SubstituteArr(arr, s.sub, s.asub)} },
					func() outcome { return outcome{a: oracleSubstituteArr(arr, s.sub, s.asub)} })
			}
		}
	})
}

// maxWidth returns the largest And/Or operand count in f.
func maxWidth(f logic.Formula) int {
	w := 0
	var walk func(logic.Formula)
	walk = func(f logic.Formula) {
		var fs []logic.Formula
		switch f := f.(type) {
		case logic.Not:
			walk(f.F)
		case logic.And:
			fs = f.Fs
		case logic.Or:
			fs = f.Fs
		case logic.Implies:
			walk(f.A)
			walk(f.B)
		case logic.Forall:
			walk(f.Body)
		case logic.Exists:
			walk(f.Body)
		}
		w = max(w, len(fs))
		for _, g := range fs {
			walk(g)
		}
	}
	walk(f)
	return w
}

// TestRewriteZeroAlloc asserts that a rewrite which leaves its input
// unchanged returns it without allocating: Simplify of a simplified formula
// (up to 8 operands per node, where dedup is a pairwise scan), NNF of an NNF
// formula, Substitute and RewriteArrayEq with nothing to replace.
func TestRewriteZeroAlloc(t *testing.T) {
	noVar := map[string]logic.Term{"absent": logic.V("w")}
	noArr := map[string]logic.Arr{"Absent": logic.AV("C")}
	nm := logic.NewNamer("@n")
	for seed := int64(0); seed < 300; seed++ {
		f := logictest.New(seed, logictest.Options{MaxWidth: 8}).Formula(5)
		cases := []struct {
			name string
			in   logic.Formula
			fn   func(logic.Formula) logic.Formula
		}{
			{"NNF", logic.NNF(f), logic.NNF},
			{"Substitute", logic.Substitute(f, nil, nil), func(g logic.Formula) logic.Formula { return logic.Substitute(g, noVar, noArr) }},
			{"RewriteArrayEq", logic.RewriteArrayEq(f, nm), func(g logic.Formula) logic.Formula { return logic.RewriteArrayEq(g, nm) }},
		}
		if s := logic.Simplify(f); maxWidth(s) <= 8 {
			cases = append(cases, struct {
				name string
				in   logic.Formula
				fn   func(logic.Formula) logic.Formula
			}{"Simplify", s, logic.Simplify})
		}
		for _, c := range cases {
			if allocs := testing.AllocsPerRun(3, func() { c.fn(c.in) }); allocs != 0 {
				t.Fatalf("seed %d: %s(%s) allocated %.1f times on an unchanged input", seed, c.name, c.in, allocs)
			}
		}
	}
}
