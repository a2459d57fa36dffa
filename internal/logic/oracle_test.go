package logic_test

import (
	"fmt"

	. "repro/internal/logic"
)

// The rewrites as they were before they shared structure with their input:
// every call rebuilt its whole input tree through the canonical
// constructors, and Conj/Disj grew their result slice by appending. They survive here only as differential oracles; the shared
// rewrites must return structurally identical formulas and advance a Namer
// identically.

func oracleSubstitute(f Formula, sub map[string]Term, asub map[string]Arr) Formula {
	switch f := f.(type) {
	case Atom:
		return Atom{Op: f.Op, X: oracleSubstituteTerm(f.X, sub, asub), Y: oracleSubstituteTerm(f.Y, sub, asub)}
	case Bool:
		return f
	case Not:
		return Neg(oracleSubstitute(f.F, sub, asub))
	case And:
		out := make([]Formula, len(f.Fs))
		for i, g := range f.Fs {
			out[i] = oracleSubstitute(g, sub, asub)
		}
		return oracleConj(out...)
	case Or:
		out := make([]Formula, len(f.Fs))
		for i, g := range f.Fs {
			out[i] = oracleSubstitute(g, sub, asub)
		}
		return oracleDisj(out...)
	case Implies:
		return Imp(oracleSubstitute(f.A, sub, asub), oracleSubstitute(f.B, sub, asub))
	case Forall:
		return All(f.Vars, oracleSubstitute(f.Body, oracleShadow(sub, f.Vars), asub))
	case Exists:
		return Any(f.Vars, oracleSubstitute(f.Body, oracleShadow(sub, f.Vars), asub))
	case Unknown:
		return f
	case AEq:
		return AEq{L: oracleSubstituteArr(f.L, sub, asub), R: oracleSubstituteArr(f.R, sub, asub)}
	}
	panic(fmt.Sprintf("logic: unknown formula %T", f))
}

func oracleShadow(sub map[string]Term, bound []string) map[string]Term {
	need := false
	for _, v := range bound {
		if _, ok := sub[v]; ok {
			need = true
			break
		}
	}
	if !need {
		return sub
	}
	out := make(map[string]Term, len(sub))
	for k, v := range sub {
		out[k] = v
	}
	for _, v := range bound {
		delete(out, v)
	}
	return out
}

func oracleSubstituteTerm(t Term, sub map[string]Term, asub map[string]Arr) Term {
	switch t := t.(type) {
	case Var:
		if r, ok := sub[t.Name]; ok {
			return r
		}
		return t
	case IntLit:
		return t
	case Add:
		return Plus(oracleSubstituteTerm(t.X, sub, asub), oracleSubstituteTerm(t.Y, sub, asub))
	case Sub:
		return Minus(oracleSubstituteTerm(t.X, sub, asub), oracleSubstituteTerm(t.Y, sub, asub))
	case Mul:
		return Times(t.C, oracleSubstituteTerm(t.X, sub, asub))
	case Select:
		return Select{A: oracleSubstituteArr(t.A, sub, asub), Idx: oracleSubstituteTerm(t.Idx, sub, asub)}
	case Apply:
		args := make([]Term, len(t.Args))
		for i, a := range t.Args {
			args[i] = oracleSubstituteTerm(a, sub, asub)
		}
		return Apply{F: t.F, Args: args}
	}
	panic(fmt.Sprintf("logic: unknown term %T", t))
}

func oracleSubstituteArr(a Arr, sub map[string]Term, asub map[string]Arr) Arr {
	switch a := a.(type) {
	case ArrVar:
		if r, ok := asub[a.Name]; ok {
			return r
		}
		return a
	case Store:
		return Store{
			A:   oracleSubstituteArr(a.A, sub, asub),
			Idx: oracleSubstituteTerm(a.Idx, sub, asub),
			Val: oracleSubstituteTerm(a.Val, sub, asub),
		}
	}
	panic(fmt.Sprintf("logic: unknown array term %T", a))
}

func oracleNNF(f Formula) Formula { return oracleNNFPol(f, false) }

func oracleNNFPol(f Formula, negate bool) Formula {
	switch f := f.(type) {
	case Atom:
		if negate {
			return Atom{Op: f.Op.Negate(), X: f.X, Y: f.Y}
		}
		return f
	case Bool:
		return Bool{Val: f.Val != negate}
	case Not:
		return oracleNNFPol(f.F, !negate)
	case And:
		out := make([]Formula, len(f.Fs))
		for i, g := range f.Fs {
			out[i] = oracleNNFPol(g, negate)
		}
		if negate {
			return oracleDisj(out...)
		}
		return oracleConj(out...)
	case Or:
		out := make([]Formula, len(f.Fs))
		for i, g := range f.Fs {
			out[i] = oracleNNFPol(g, negate)
		}
		if negate {
			return oracleConj(out...)
		}
		return oracleDisj(out...)
	case Implies:
		if negate {
			return oracleConj(oracleNNFPol(f.A, false), oracleNNFPol(f.B, true))
		}
		return oracleDisj(oracleNNFPol(f.A, true), oracleNNFPol(f.B, false))
	case Forall:
		if negate {
			return Any(f.Vars, oracleNNFPol(f.Body, true))
		}
		return All(f.Vars, oracleNNFPol(f.Body, false))
	case Exists:
		if negate {
			return All(f.Vars, oracleNNFPol(f.Body, true))
		}
		return Any(f.Vars, oracleNNFPol(f.Body, false))
	case Unknown:
		panic("logic: NNF applied to a formula with unresolved unknowns")
	}
	panic(fmt.Sprintf("logic: unknown formula %T", f))
}

func oracleStandardizeApart(f Formula, nm *Namer) Formula {
	return oracleStandardize(f, nm, map[string]Term{})
}

func oracleStandardize(f Formula, nm *Namer, ren map[string]Term) Formula {
	switch f := f.(type) {
	case Atom:
		return Atom{Op: f.Op, X: oracleSubstituteTerm(f.X, ren, nil), Y: oracleSubstituteTerm(f.Y, ren, nil)}
	case Bool:
		return f
	case Not:
		return Neg(oracleStandardize(f.F, nm, ren))
	case And:
		out := make([]Formula, len(f.Fs))
		for i, g := range f.Fs {
			out[i] = oracleStandardize(g, nm, ren)
		}
		return oracleConj(out...)
	case Or:
		out := make([]Formula, len(f.Fs))
		for i, g := range f.Fs {
			out[i] = oracleStandardize(g, nm, ren)
		}
		return oracleDisj(out...)
	case Implies:
		return Imp(oracleStandardize(f.A, nm, ren), oracleStandardize(f.B, nm, ren))
	case Forall:
		vars, undo := oracleRenameBound(f.Vars, nm, ren)
		body := oracleStandardize(f.Body, nm, ren)
		oracleUndoRename(f.Vars, undo, ren)
		return All(vars, body)
	case Exists:
		vars, undo := oracleRenameBound(f.Vars, nm, ren)
		body := oracleStandardize(f.Body, nm, ren)
		oracleUndoRename(f.Vars, undo, ren)
		return Any(vars, body)
	case Unknown:
		panic("logic: StandardizeApart applied to a formula with unresolved unknowns")
	case AEq:
		return AEq{L: oracleSubstituteArr(f.L, ren, nil), R: oracleSubstituteArr(f.R, ren, nil)}
	}
	panic(fmt.Sprintf("logic: unknown formula %T", f))
}

func oracleRenameBound(vars []string, nm *Namer, ren map[string]Term) ([]string, []Term) {
	out := make([]string, len(vars))
	undo := make([]Term, len(vars))
	for i, v := range vars {
		fresh := nm.Fresh()
		out[i] = fresh
		undo[i] = ren[v]
		ren[v] = Var{Name: fresh}
	}
	return out, undo
}

func oracleUndoRename(vars []string, undo []Term, ren map[string]Term) {
	for i := len(vars) - 1; i >= 0; i-- {
		if undo[i] == nil {
			delete(ren, vars[i])
		} else {
			ren[vars[i]] = undo[i]
		}
	}
}

// oracleSimplify deduplicates operands by a pairwise structural scan where
// the original used a structural hash set; both keep exactly the first of
// each class of structurally equal operands.
func oracleSimplify(f Formula) Formula {
	switch f := f.(type) {
	case Atom:
		if x, ok := f.X.(IntLit); ok {
			if y, ok := f.Y.(IntLit); ok {
				return Bool{Val: oracleEvalRel(f.Op, x.Val, y.Val)}
			}
		}
		if TermEq(f.X, f.Y) {
			switch f.Op {
			case Eq, Le, Ge:
				return True
			case Neq, Lt, Gt:
				return False
			}
		}
		return f
	case Bool:
		return f
	case Not:
		return Neg(oracleSimplify(f.F))
	case And:
		var out []Formula
		for _, g := range f.Fs {
			s := oracleSimplify(g)
			switch s := s.(type) {
			case Bool:
				if !s.Val {
					return False
				}
				continue
			case And:
				for _, h := range s.Fs {
					out = oracleAddNew(out, h)
				}
				continue
			}
			out = oracleAddNew(out, s)
		}
		return oracleConj(out...)
	case Or:
		var out []Formula
		for _, g := range f.Fs {
			s := oracleSimplify(g)
			switch s := s.(type) {
			case Bool:
				if s.Val {
					return True
				}
				continue
			case Or:
				for _, h := range s.Fs {
					out = oracleAddNew(out, h)
				}
				continue
			}
			out = oracleAddNew(out, s)
		}
		return oracleDisj(out...)
	case Implies:
		return Imp(oracleSimplify(f.A), oracleSimplify(f.B))
	case Forall:
		return All(f.Vars, oracleSimplify(f.Body))
	case Exists:
		return Any(f.Vars, oracleSimplify(f.Body))
	case Unknown:
		return f
	case AEq:
		if ArrEq(f.L, f.R) {
			return True
		}
		return f
	}
	panic(fmt.Sprintf("logic: unknown formula %T", f))
}

// oracleAddNew appends f unless a structurally equal operand is present.
func oracleAddNew(out []Formula, f Formula) []Formula {
	for _, g := range out {
		if FormulaStructEq(f, g) {
			return out
		}
	}
	return append(out, f)
}

func oracleEvalRel(op RelOp, x, y int64) bool {
	switch op {
	case Eq:
		return x == y
	case Neq:
		return x != y
	case Lt:
		return x < y
	case Le:
		return x <= y
	case Gt:
		return x > y
	case Ge:
		return x >= y
	}
	panic("logic: bad RelOp")
}

func oracleRewriteArrayEq(f Formula, nm *Namer) Formula {
	switch f := f.(type) {
	case AEq:
		if ArrEq(f.L, f.R) {
			return True
		}
		k := nm.Fresh()
		return Forall{Vars: []string{k}, Body: EqF(Sel(f.L, V(k)), Sel(f.R, V(k)))}
	case Atom, Bool, Unknown:
		return f
	case Not:
		return Neg(oracleRewriteArrayEq(f.F, nm))
	case And:
		out := make([]Formula, len(f.Fs))
		for i, g := range f.Fs {
			out[i] = oracleRewriteArrayEq(g, nm)
		}
		return oracleConj(out...)
	case Or:
		out := make([]Formula, len(f.Fs))
		for i, g := range f.Fs {
			out[i] = oracleRewriteArrayEq(g, nm)
		}
		return oracleDisj(out...)
	case Implies:
		return Imp(oracleRewriteArrayEq(f.A, nm), oracleRewriteArrayEq(f.B, nm))
	case Forall:
		return All(f.Vars, oracleRewriteArrayEq(f.Body, nm))
	case Exists:
		return Any(f.Vars, oracleRewriteArrayEq(f.Body, nm))
	}
	panic(fmt.Sprintf("logic: unknown formula %T", f))
}

func oracleConj(fs ...Formula) Formula {
	var out []Formula
	for _, f := range fs {
		switch f := f.(type) {
		case Bool:
			if !f.Val {
				return False
			}
		case And:
			out = append(out, f.Fs...)
		default:
			out = append(out, f)
		}
	}
	switch len(out) {
	case 0:
		return True
	case 1:
		return out[0]
	}
	return And{Fs: out}
}

func oracleDisj(fs ...Formula) Formula {
	var out []Formula
	for _, f := range fs {
		switch f := f.(type) {
		case Bool:
			if f.Val {
				return True
			}
		case Or:
			out = append(out, f.Fs...)
		default:
			out = append(out, f)
		}
	}
	switch len(out) {
	case 0:
		return False
	case 1:
		return out[0]
	}
	return Or{Fs: out}
}
