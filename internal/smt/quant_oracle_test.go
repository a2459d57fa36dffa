package smt

import (
	"fmt"

	"repro/internal/logic"
)

// skolemize and instantiate as they were before they shared structure with
// their input, kept only as differential oracles for the shared versions.

func oracleSkolemize(f logic.Formula, univ []string, nm *logic.Namer) logic.Formula {
	switch f := f.(type) {
	case logic.Atom, logic.Bool:
		return f
	case logic.Not:
		return f
	case logic.And:
		out := make([]logic.Formula, len(f.Fs))
		for i, g := range f.Fs {
			out[i] = oracleSkolemize(g, univ, nm)
		}
		return logic.Conj(out...)
	case logic.Or:
		out := make([]logic.Formula, len(f.Fs))
		for i, g := range f.Fs {
			out[i] = oracleSkolemize(g, univ, nm)
		}
		return logic.Disj(out...)
	case logic.Forall:
		u2 := append(append([]string(nil), univ...), f.Vars...)
		return logic.All(f.Vars, oracleSkolemize(f.Body, u2, nm))
	case logic.Exists:
		sub := map[string]logic.Term{}
		for _, x := range f.Vars {
			if len(univ) == 0 {
				sub[x] = logic.V(nm.Fresh())
			} else {
				args := make([]logic.Term, len(univ))
				for i, u := range univ {
					args[i] = logic.V(u)
				}
				sub[x] = logic.App(nm.Fresh(), args...)
			}
		}
		return oracleSkolemize(logic.Substitute(f.Body, sub, nil), univ, nm)
	}
	panic(fmt.Sprintf("smt: unexpected formula in skolemize: %T", f))
}

func oracleInstantiate(f logic.Formula, env *instEnv) logic.Formula {
	switch f := f.(type) {
	case logic.Atom, logic.Bool, logic.Not:
		return f
	case logic.And:
		out := make([]logic.Formula, len(f.Fs))
		for i, g := range f.Fs {
			out[i] = oracleInstantiate(g, env)
		}
		return logic.Conj(out...)
	case logic.Or:
		out := make([]logic.Formula, len(f.Fs))
		for i, g := range f.Fs {
			out[i] = oracleInstantiate(g, env)
		}
		return logic.Disj(out...)
	case logic.Forall:
		k := len(f.Vars)
		var trigs map[string][]trigger
		if env.triggers != nil {
			trigs = env.triggers(f)
		} else {
			trigs = triggersOf(f.Body, f.Vars)
		}
		cands := make([][]logic.Term, k)
		total := 1
		for i, v := range f.Vars {
			cands[i] = env.candidatesFor(v, trigs)
			total *= len(cands[i])
		}
		for total > env.maxInstances {
			maxI := 0
			for i := range cands {
				if len(cands[i]) > len(cands[maxI]) {
					maxI = i
				}
			}
			if len(cands[maxI]) <= 1 {
				break
			}
			total = total / len(cands[maxI]) * (len(cands[maxI]) - 1)
			cands[maxI] = cands[maxI][:len(cands[maxI])-1]
		}
		var out []logic.Formula
		tuple := make([]logic.Term, k)
		sub := make(map[string]logic.Term, k)
		var gen func(int)
		gen = func(i int) {
			if i == k {
				for j, v := range f.Vars {
					sub[v] = tuple[j]
				}
				inst := logic.Substitute(f.Body, sub, nil)
				out = append(out, oracleInstantiate(inst, env))
				return
			}
			for _, t := range cands[i] {
				tuple[i] = t
				gen(i + 1)
			}
		}
		gen(0)
		return logic.Conj(out...)
	case logic.Exists:
		panic("smt: existential survived skolemization")
	}
	panic(fmt.Sprintf("smt: unexpected formula in instantiate: %T", f))
}
