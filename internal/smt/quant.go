// Package smt implements the SMT validity checker that every layer of the
// verifier calls through a single interface, mirroring the paper's use of Z3
// behind a pattern/skolemization wrapper (§7). Validity of a quantified
// formula is decided refutationally:
//
//	Valid(φ)  ⇔  ¬φ unsatisfiable
//
// The negated formula is normalized (array equalities → quantified element
// equalities, NNF, bound-variable standardization), its existentials are
// skolemized, and its universals are instantiated over the ground index
// terms of the formula (iterated so skolem witnesses feed later rounds).
// The resulting ground formula is decided by a lazy DPLL(T) loop over the
// CDCL core (package sat) and the integer arithmetic solver (package lia).
//
// "Unsatisfiable" answers — hence Valid == true — are sound unconditionally.
// A "satisfiable" answer on an instantiation-incomplete formula is treated
// as "not valid", which keeps every client algorithm conservative.
package smt

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/logic"
)

// skolemize replaces every existential variable in the NNF formula f with an
// application of a fresh function symbol to the universally quantified
// variables in scope. Plain fresh constants are used when no universals are
// in scope. Existential-free subtrees are shared with f.
func skolemize(f logic.Formula, nm *logic.Namer) logic.Formula {
	var scope [8]string
	g, _ := skolemizeIn(f, scope[:0], nm)
	return g
}

// skolemizeIn skolemizes f under the universals univ. A quantifier appends
// its variables to univ for its body only; univ's backing array is scratch
// space reused by sibling quantifiers, since witnesses copy the names out.
func skolemizeIn(f logic.Formula, univ []string, nm *logic.Namer) (logic.Formula, bool) {
	switch g := f.(type) {
	case logic.Atom, logic.Bool:
		return f, false
	case logic.Not:
		// NNF guarantees the operand is an atom; nothing to skolemize.
		return f, false
	case logic.And, logic.Or:
		return logic.MapChildren(f, func(h logic.Formula) (logic.Formula, bool) { return skolemizeIn(h, univ, nm) })
	case logic.Forall:
		inner := append(univ, g.Vars...)
		return logic.MapChildren(f, func(h logic.Formula) (logic.Formula, bool) { return skolemizeIn(h, inner, nm) })
	case logic.Exists:
		sub := make(map[string]logic.Term, len(g.Vars))
		for _, x := range g.Vars {
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
		h, _ := skolemizeIn(logic.Substitute(g.Body, sub, nil), univ, nm)
		return h, true
	}
	panic(fmt.Sprintf("smt: unexpected formula in skolemize: %T", f))
}

// boundVarNames returns the set of all quantified variable names in f.
// After StandardizeApart these are globally unique, so a term is ground
// exactly when it mentions none of them.
func boundVarNames(f logic.Formula) map[string]bool {
	out := map[string]bool{}
	var walk func(logic.Formula)
	walk = func(f logic.Formula) {
		switch f := f.(type) {
		case logic.Not:
			walk(f.F)
		case logic.And:
			for _, g := range f.Fs {
				walk(g)
			}
		case logic.Or:
			for _, g := range f.Fs {
				walk(g)
			}
		case logic.Forall:
			for _, v := range f.Vars {
				out[v] = true
			}
			walk(f.Body)
		case logic.Exists:
			for _, v := range f.Vars {
				out[v] = true
			}
			walk(f.Body)
		}
	}
	walk(f)
	return out
}

// termMentions reports whether t mentions any integer variable in names. It
// is called for every term and atom the instantiation walks touch, so it is a
// direct short-circuiting recursion rather than a TermVars set collection
// (which would allocate two maps per call). The traversal mirrors TermVars
// exactly — including walking only the X side of Mul (the linear fragment
// keeps Y constant).
func termMentions(t logic.Term, names map[string]bool) bool {
	switch t := t.(type) {
	case logic.Var:
		return names[t.Name]
	case logic.IntLit:
		return false
	case logic.Add:
		return termMentions(t.X, names) || termMentions(t.Y, names)
	case logic.Sub:
		return termMentions(t.X, names) || termMentions(t.Y, names)
	case logic.Mul:
		return termMentions(t.X, names)
	case logic.Select:
		return arrMentions(t.A, names) || termMentions(t.Idx, names)
	case logic.Apply:
		for _, a := range t.Args {
			if termMentions(a, names) {
				return true
			}
		}
		return false
	}
	return false
}

func arrMentions(a logic.Arr, names map[string]bool) bool {
	switch a := a.(type) {
	case logic.ArrVar:
		return false
	case logic.Store:
		return arrMentions(a.A, names) || termMentions(a.Idx, names) || termMentions(a.Val, names)
	}
	return false
}

// collectInstTerms gathers the instantiation set E for the universals of f:
// ground index terms of array reads, and ground atom sides compared against
// a term that mentions a bound variable. This is the standard complete
// instantiation set for the array property fragment.
func collectInstTerms(f logic.Formula, bound map[string]bool) []logic.Term {
	seen := map[string]logic.Term{}
	add := func(t logic.Term) {
		if !termMentions(t, bound) {
			seen[t.String()] = t
		}
	}
	var walkTerm func(logic.Term)
	var walkArr func(logic.Arr)
	walkTerm = func(t logic.Term) {
		switch t := t.(type) {
		case logic.Var, logic.IntLit:
		case logic.Add:
			walkTerm(t.X)
			walkTerm(t.Y)
		case logic.Sub:
			walkTerm(t.X)
			walkTerm(t.Y)
		case logic.Mul:
			walkTerm(t.X)
		case logic.Select:
			add(t.Idx)
			walkArr(t.A)
			walkTerm(t.Idx)
		case logic.Apply:
			for _, a := range t.Args {
				walkTerm(a)
			}
		}
	}
	walkArr = func(a logic.Arr) {
		switch a := a.(type) {
		case logic.ArrVar:
		case logic.Store:
			walkArr(a.A)
			add(a.Idx)
			walkTerm(a.Idx)
			walkTerm(a.Val)
		}
	}
	var walk func(logic.Formula)
	walk = func(f logic.Formula) {
		switch f := f.(type) {
		case logic.Atom:
			xb, yb := termMentions(f.X, bound), termMentions(f.Y, bound)
			if xb && !yb {
				add(f.Y)
			}
			if yb && !xb {
				add(f.X)
			}
			walkTerm(f.X)
			walkTerm(f.Y)
		case logic.Not:
			walk(f.F)
		case logic.And:
			for _, g := range f.Fs {
				walk(g)
			}
		case logic.Or:
			for _, g := range f.Fs {
				walk(g)
			}
		case logic.Forall:
			walk(f.Body)
		case logic.Exists:
			walk(f.Body)
		}
	}
	walk(f)
	if len(seen) == 0 {
		seen["0"] = logic.I(0)
	}
	terms := make([]logic.Term, 0, len(seen))
	for _, t := range seen {
		terms = append(terms, t)
	}
	sort.Slice(terms, func(i, j int) bool {
		ci, cj := termComplexity(terms[i]), termComplexity(terms[j])
		if ci != cj {
			return ci < cj
		}
		return terms[i].String() < terms[j].String()
	})
	return terms
}

// termComplexity orders instantiation candidates: simple variables first so
// that if the set must be truncated the most useful instances survive.
func termComplexity(t logic.Term) int {
	switch t := t.(type) {
	case logic.Var:
		if strings.HasPrefix(t.Name, "@sk") {
			return 1
		}
		return 0
	case logic.IntLit:
		return 0
	case logic.Add:
		return 1 + termComplexity(t.X) + termComplexity(t.Y)
	case logic.Sub:
		return 1 + termComplexity(t.X) + termComplexity(t.Y)
	case logic.Mul:
		return 1 + termComplexity(t.X)
	case logic.Select:
		return 3 + termComplexity(t.Idx)
	case logic.Apply:
		c := 2
		for _, a := range t.Args {
			c += termComplexity(a)
		}
		return c
	}
	return 9
}

// instEnv carries the instantiation candidate sets of one round: the
// comparison-derived fallback set E and, per array, the ground index terms
// occurring anywhere in the formula (the E-matching index).
type instEnv struct {
	fallback     []logic.Term
	arrIndices   map[string][]logic.Term
	maxInstances int
	// triggers, when non-nil, supplies (memoized) trigger extraction for a
	// universal quantifier; instantiate falls back to triggersOf otherwise.
	triggers func(logic.Forall) map[string][]trigger
}

// converged reports whether this round's candidate sets match the previous
// round's — same fallback count and identical per-array ground index terms —
// in which case re-instantiating cannot produce anything new. (This is the
// same fixpoint condition the solver historically checked by rendering both
// sets through fmt.Sprintf and comparing the strings.)
func (env *instEnv) converged(prev *instEnv) bool {
	if prev == nil || len(env.fallback) != len(prev.fallback) {
		return false
	}
	if len(env.arrIndices) != len(prev.arrIndices) {
		return false
	}
	for arr, ts := range env.arrIndices {
		ps, ok := prev.arrIndices[arr]
		if !ok || len(ts) != len(ps) {
			return false
		}
		for i := range ts {
			if !logic.TermStructEq(ts[i], ps[i]) {
				return false
			}
		}
	}
	return true
}

// arrFamily canonicalizes an array variable name to its SSA family: the
// versions A, A#1, A#2 of one program array share index terms for
// E-matching purposes (they are linked by element equalities).
func arrFamily(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '#' {
			return name[:i]
		}
	}
	return name
}

// groundArrayIndices collects, per array family, the ground terms used as
// its read or write indices anywhere in f. These are the E-matching
// candidates.
func groundArrayIndices(f logic.Formula, bound map[string]bool) map[string][]logic.Term {
	seen := map[string]map[string]logic.Term{}
	add := func(arr string, t logic.Term) {
		if termMentions(t, bound) {
			return
		}
		m, ok := seen[arr]
		if !ok {
			m = map[string]logic.Term{}
			seen[arr] = m
		}
		m[t.String()] = t
	}
	var walkTerm func(logic.Term)
	var walkArr func(logic.Arr) string
	walkArr = func(a logic.Arr) string {
		switch a := a.(type) {
		case logic.ArrVar:
			return arrFamily(a.Name)
		case logic.Store:
			name := walkArr(a.A)
			add(name, a.Idx)
			walkTerm(a.Idx)
			walkTerm(a.Val)
			return name
		}
		return ""
	}
	walkTerm = func(t logic.Term) {
		switch t := t.(type) {
		case logic.Var, logic.IntLit:
		case logic.Add:
			walkTerm(t.X)
			walkTerm(t.Y)
		case logic.Sub:
			walkTerm(t.X)
			walkTerm(t.Y)
		case logic.Mul:
			walkTerm(t.X)
		case logic.Select:
			name := walkArr(t.A)
			add(name, t.Idx)
			walkTerm(t.Idx)
		case logic.Apply:
			for _, a := range t.Args {
				walkTerm(a)
			}
		}
	}
	var walk func(logic.Formula)
	walk = func(f logic.Formula) {
		switch f := f.(type) {
		case logic.Atom:
			walkTerm(f.X)
			walkTerm(f.Y)
		case logic.Not:
			walk(f.F)
		case logic.And:
			for _, g := range f.Fs {
				walk(g)
			}
		case logic.Or:
			for _, g := range f.Fs {
				walk(g)
			}
		case logic.Forall:
			walk(f.Body)
		case logic.Exists:
			walk(f.Body)
		}
	}
	walk(f)
	out := map[string][]logic.Term{}
	for arr, m := range seen {
		keys := logic.SortedKeys(m)
		ts := make([]logic.Term, len(keys))
		for i, k := range keys {
			ts[i] = m[k]
		}
		out[arr] = ts
	}
	return out
}

// trigger is one E-matching pattern: the bound variable occurs (plus a
// constant offset) as an index of the named array.
type trigger struct {
	arr    string
	offset int64
}

// triggersOf extracts, per bound variable, the select patterns it occurs in
// within body: A[v] gives {A, 0}, A[v+1] gives {A, +1}, A[v-2] gives {A, −2}.
func triggersOf(body logic.Formula, vars []string) map[string][]trigger {
	isVar := map[string]bool{}
	for _, v := range vars {
		isVar[v] = true
	}
	out := map[string][]trigger{}
	addTrig := func(v string, tr trigger) {
		for _, t := range out[v] {
			if t == tr {
				return
			}
		}
		out[v] = append(out[v], tr)
	}
	matchIdx := func(arr string, idx logic.Term) {
		switch idx := idx.(type) {
		case logic.Var:
			if isVar[idx.Name] {
				addTrig(idx.Name, trigger{arr: arr, offset: 0})
			}
		case logic.Add:
			if v, ok := idx.X.(logic.Var); ok && isVar[v.Name] {
				if c, ok := idx.Y.(logic.IntLit); ok {
					addTrig(v.Name, trigger{arr: arr, offset: c.Val})
				}
			}
		case logic.Sub:
			if v, ok := idx.X.(logic.Var); ok && isVar[v.Name] {
				if c, ok := idx.Y.(logic.IntLit); ok {
					addTrig(v.Name, trigger{arr: arr, offset: -c.Val})
				}
			}
		}
	}
	var walkTerm func(logic.Term)
	var walkArr func(logic.Arr) string
	walkArr = func(a logic.Arr) string {
		switch a := a.(type) {
		case logic.ArrVar:
			return arrFamily(a.Name)
		case logic.Store:
			name := walkArr(a.A)
			matchIdx(name, a.Idx)
			walkTerm(a.Idx)
			walkTerm(a.Val)
			return name
		}
		return ""
	}
	walkTerm = func(t logic.Term) {
		switch t := t.(type) {
		case logic.Var, logic.IntLit:
		case logic.Add:
			walkTerm(t.X)
			walkTerm(t.Y)
		case logic.Sub:
			walkTerm(t.X)
			walkTerm(t.Y)
		case logic.Mul:
			walkTerm(t.X)
		case logic.Select:
			name := walkArr(t.A)
			matchIdx(name, t.Idx)
			walkTerm(t.Idx)
		case logic.Apply:
			for _, a := range t.Args {
				walkTerm(a)
			}
		}
	}
	var walk func(logic.Formula)
	walk = func(f logic.Formula) {
		switch f := f.(type) {
		case logic.Atom:
			walkTerm(f.X)
			walkTerm(f.Y)
		case logic.Not:
			walk(f.F)
		case logic.And:
			for _, g := range f.Fs {
				walk(g)
			}
		case logic.Or:
			for _, g := range f.Fs {
				walk(g)
			}
		case logic.Forall:
			walk(f.Body)
		case logic.Exists:
			walk(f.Body)
		}
	}
	walk(body)
	return out
}

// candidatesFor returns the instantiation terms for one bound variable of a
// universal: the E-matching candidates from its select patterns, or the
// comparison-derived fallback set when it indexes nothing.
func (env *instEnv) candidatesFor(v string, trigs map[string][]trigger) []logic.Term {
	ts := trigs[v]
	if len(ts) == 0 {
		return env.fallback
	}
	seen := map[string]logic.Term{}
	for _, tr := range ts {
		for _, idx := range env.arrIndices[tr.arr] {
			// Pattern v+off matched ground index t instantiates v := t−off.
			inst := idx
			if tr.offset != 0 {
				inst = logic.Minus(idx, logic.I(tr.offset))
			}
			seen[inst.String()] = inst
		}
	}
	if len(seen) == 0 {
		return env.fallback
	}
	keys := logic.SortedKeys(seen)
	out := make([]logic.Term, len(keys))
	for i, k := range keys {
		out[i] = seen[k]
	}
	return out
}

// instantiate replaces every universal in the skolemized NNF formula with
// the conjunction of its body over tuples of candidate terms, bounded by
// maxInstances per quantifier. Quantifier-free subtrees are shared with f.
func (env *instEnv) instantiate(f logic.Formula) (logic.Formula, bool) {
	switch g := f.(type) {
	case logic.Atom, logic.Bool, logic.Not:
		return f, false
	case logic.And, logic.Or:
		return logic.MapChildren(f, env.instantiate)
	case logic.Forall:
		k := len(g.Vars)
		var trigs map[string][]trigger
		if env.triggers != nil {
			trigs = env.triggers(g)
		} else {
			trigs = triggersOf(g.Body, g.Vars)
		}
		cands := make([][]logic.Term, k)
		total := 1
		for i, v := range g.Vars {
			cands[i] = env.candidatesFor(v, trigs)
			total *= len(cands[i])
		}
		// Shrink the largest sets until the tuple count is bounded.
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
		out := make([]logic.Formula, 0, total)
		tuple := make([]logic.Term, k)
		// One substitution map per quantifier, overwritten per tuple:
		// Substitute only reads it, so reuse is safe and saves a map
		// allocation per instance.
		sub := make(map[string]logic.Term, k)
		var gen func(int)
		gen = func(i int) {
			if i == k {
				for j, v := range g.Vars {
					sub[v] = tuple[j]
				}
				inst, _ := env.instantiate(logic.Substitute(g.Body, sub, nil))
				out = append(out, inst)
				return
			}
			for _, t := range cands[i] {
				tuple[i] = t
				gen(i + 1)
			}
		}
		gen(0)
		return logic.ConjOwned(out), true
	case logic.Exists:
		panic("smt: existential survived skolemization")
	}
	panic(fmt.Sprintf("smt: unexpected formula in instantiate: %T", f))
}

func pow(b, e int) int {
	r := 1
	for i := 0; i < e; i++ {
		r *= b
		if r > 1<<30 {
			return r
		}
	}
	return r
}
