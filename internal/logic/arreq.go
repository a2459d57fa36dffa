package logic

import "fmt"

// AEq is the extensional array equality L = R. Weakest preconditions of
// array writes introduce it (A' = upd(A, i, e)). The SMT layer rewrites it
// to ∀k: L[k] = R[k] before solving, so NNF never sees this node.
type AEq struct{ L, R Arr }

func (AEq) isFormula() {}

func (a AEq) String() string { return fmt.Sprintf("%s = %s", a.L, a.R) }

// ArrEqF builds the array equality l = r.
func ArrEqF(l, r Arr) Formula { return AEq{L: l, R: r} }

// freeVarsAEqCase is wired into FreeVars' switch (kept here so array-equality
// support is easy to audit).
func freeVarsAEqCase(f AEq, bound, vs, avs map[string]bool) {
	tv, ta := map[string]bool{}, map[string]bool{}
	ArrTermVars(f.L, tv, ta)
	ArrTermVars(f.R, tv, ta)
	for v := range tv {
		if !bound[v] {
			vs[v] = true
		}
	}
	for a := range ta {
		avs[a] = true
	}
}

// RewriteArrayEq replaces every array equality L = R in f with
// ∀k: L[k] = R[k] for a fresh k drawn from nm. It must run before NNF.
// Subtrees without array equalities are shared with f.
func RewriteArrayEq(f Formula, nm *Namer) Formula {
	g, _ := rewriteArrayEq(f, nm)
	return g
}

func rewriteArrayEq(f Formula, nm *Namer) (Formula, bool) {
	if g, ok := f.(AEq); ok {
		if ArrEq(g.L, g.R) {
			return True, true
		}
		k := nm.Fresh()
		return Forall{Vars: []string{k}, Body: EqF(Sel(g.L, V(k)), Sel(g.R, V(k)))}, true
	}
	return MapChildren(f, func(h Formula) (Formula, bool) { return rewriteArrayEq(h, nm) })
}
