package logic

import "fmt"

// Structure-sharing rewrites.
//
// Every rewrite in this package (Simplify, NNF, StandardizeApart, the
// Substitute family, RewriteArrayEq) and the SMT preprocessing built on them
// has an internal (result, changed) form. When changed is false the result is
// the input interface value itself: no child changed, and the node is already
// a fixed point of the constructor the rewrite would rebuild it with (Conj,
// Disj, Neg, Imp, All, Any, Plus, Minus, Times). Returning the input value —
// never a copy re-boxed out of a type switch — is what lets an unchanged
// subtree cost no allocation at all. A new operand slice is built only from
// the first changed operand onward.
//
// Because results share subtrees with their inputs, formulas are immutable:
// no code may write into a formula's Fs, Args or Vars slice, or append onto
// one without copying it first.

// MapChildren applies fn to each immediate subformula of f, in order, and
// rebuilds f with its canonical constructor (Neg, Conj, Disj, Imp, All, Any).
// fn reports whether it changed its argument, with the same contract as
// MapChildren itself: it returns f and false when fn changed no child and f
// is already in its constructor's normal form. Atoms, constants, unknowns
// and array equalities have no subformulas and come back unchanged.
func MapChildren(f Formula, fn func(Formula) (Formula, bool)) (Formula, bool) {
	switch g := f.(type) {
	case Atom, Bool, Unknown, AEq:
		return f, false
	case Not:
		h, ch := fn(g.F)
		if !ch && negNormal(h) {
			return f, false
		}
		return Neg(h), true
	case And:
		fs, ch := mapFormulas(g.Fs, fn)
		if !ch && naryNormal(fs, true) {
			return f, false
		}
		return ConjOwned(fs), true
	case Or:
		fs, ch := mapFormulas(g.Fs, fn)
		if !ch && naryNormal(fs, false) {
			return f, false
		}
		return DisjOwned(fs), true
	case Implies:
		a, ca := fn(g.A)
		b, cb := fn(g.B)
		if !ca && !cb && !isBool(a) && !isBool(b) {
			return f, false
		}
		return Imp(a, b), true
	case Forall:
		b, ch := fn(g.Body)
		if !ch && quantNormal(g.Vars, b) {
			return f, false
		}
		return All(g.Vars, b), true
	case Exists:
		b, ch := fn(g.Body)
		if !ch && quantNormal(g.Vars, b) {
			return f, false
		}
		return Any(g.Vars, b), true
	}
	panic(fmt.Sprintf("logic: unknown formula %T", f))
}

// mapFormulas applies fn to each of fs in order. It returns fs itself when
// nothing changed, else a fresh slice that shares the unchanged prefix.
func mapFormulas(fs []Formula, fn func(Formula) (Formula, bool)) ([]Formula, bool) {
	var out []Formula
	for i, g := range fs {
		h, ch := fn(g)
		if ch && out == nil {
			out = make([]Formula, len(fs))
			copy(out, fs[:i])
		}
		if out != nil {
			out[i] = h
		}
	}
	if out == nil {
		return fs, false
	}
	return out, true
}

// ConjOwned is Conj(fs...) for a slice the caller hands over: when no operand
// needs folding the conjunction is built over fs itself instead of a copy, so
// the caller must not modify fs afterwards.
func ConjOwned(fs []Formula) Formula {
	if naryNormal(fs, true) {
		return And{Fs: fs}
	}
	return Conj(fs...)
}

// DisjOwned is Disj(fs...) for a slice the caller hands over, as ConjOwned.
func DisjOwned(fs []Formula) Formula {
	if naryNormal(fs, false) {
		return Or{Fs: fs}
	}
	return Disj(fs...)
}

// naryNormal reports whether Conj (isAnd) or Disj would rebuild an operand
// list unchanged: at least two operands, none a constant or a nested node of
// the same kind.
func naryNormal(fs []Formula, isAnd bool) bool {
	if len(fs) < 2 {
		return false
	}
	for _, f := range fs {
		switch f.(type) {
		case Bool:
			return false
		case And:
			if isAnd {
				return false
			}
		case Or:
			if !isAnd {
				return false
			}
		}
	}
	return true
}

// negNormal reports whether Neg(f) is Not{f}.
func negNormal(f Formula) bool {
	switch f.(type) {
	case Bool, Not, Atom:
		return false
	}
	return true
}

// quantNormal reports whether All/Any keep a quantifier over vars and body.
func quantNormal(vars []string, body Formula) bool {
	return len(vars) > 0 && !isBool(body)
}

func isBool(f Formula) bool {
	_, ok := f.(Bool)
	return ok
}

func isLit(t Term) bool {
	_, ok := t.(IntLit)
	return ok
}

func isZero(t Term) bool {
	l, ok := t.(IntLit)
	return ok && l.Val == 0
}

// plusNormal reports whether Plus(x, y) is Add{x, y}.
func plusNormal(x, y Term) bool {
	return !(isLit(x) && isLit(y)) && !isZero(x) && !isZero(y)
}

// minusNormal reports whether Minus(x, y) is Sub{x, y}.
func minusNormal(x, y Term) bool {
	return !(isLit(x) && isLit(y)) && !isZero(y)
}

// timesNormal reports whether Times(c, x) is Mul{c, x}.
func timesNormal(c int64, x Term) bool {
	return c != 0 && c != 1 && !isLit(x)
}
