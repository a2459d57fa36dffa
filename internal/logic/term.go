// Package logic defines the term and formula language shared by every layer
// of the verifier: programs are lowered to formulas over it, templates are
// formulas with unknowns in it, and the SMT solver decides validity of its
// quantified fragment.
//
// Terms are integer-sorted expressions over scalar variables, integer
// literals, linear arithmetic, array reads (select), and uninterpreted
// function applications (used for skolem witnesses and list "next" fields).
// Array-sorted terms are array variables and functional array writes
// (store/upd). The language matches §2 of Srivastava & Gulwani (PLDI 2009).
package logic

import (
	"fmt"
	"sort"
	"strings"
)

// Term is an integer-sorted expression.
type Term interface {
	isTerm()
	String() string
}

// Arr is an array-sorted expression.
type Arr interface {
	isArr()
	String() string
}

// Var is an integer program or bound variable.
type Var struct{ Name string }

// IntLit is an integer constant.
type IntLit struct{ Val int64 }

// Add is t X + Y.
type Add struct{ X, Y Term }

// Sub is X - Y.
type Sub struct{ X, Y Term }

// Mul is C * X with a constant coefficient; the language is linear.
type Mul struct {
	C int64
	X Term
}

// Select is an array read A[Idx].
type Select struct {
	A   Arr
	Idx Term
}

// Apply is an application F(Args...) of an uninterpreted integer function.
// Skolemization introduces these; the list benchmarks use them for next().
type Apply struct {
	F    string
	Args []Term
}

// ArrVar is an array-valued variable.
type ArrVar struct{ Name string }

// Store is the functional array write upd(A, Idx, Val).
type Store struct {
	A        Arr
	Idx, Val Term
}

func (Var) isTerm()    {}
func (IntLit) isTerm() {}
func (Add) isTerm()    {}
func (Sub) isTerm()    {}
func (Mul) isTerm()    {}
func (Select) isTerm() {}
func (Apply) isTerm()  {}

func (ArrVar) isArr() {}
func (Store) isArr()  {}

func (v Var) String() string    { return v.Name }
func (l IntLit) String() string { return fmt.Sprintf("%d", l.Val) }
func (a Add) String() string    { return fmt.Sprintf("(%s + %s)", a.X, a.Y) }
func (s Sub) String() string    { return fmt.Sprintf("(%s - %s)", s.X, s.Y) }
func (m Mul) String() string    { return fmt.Sprintf("(%d * %s)", m.C, m.X) }
func (s Select) String() string { return fmt.Sprintf("%s[%s]", s.A, s.Idx) }
func (a Apply) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return fmt.Sprintf("%s(%s)", a.F, strings.Join(parts, ", "))
}
func (v ArrVar) String() string { return v.Name }
func (s Store) String() string  { return fmt.Sprintf("upd(%s, %s, %s)", s.A, s.Idx, s.Val) }

// V returns an integer variable term.
func V(name string) Term { return Var{Name: name} }

// I returns an integer literal term.
func I(v int64) Term { return IntLit{Val: v} }

// AV returns an array variable.
func AV(name string) Arr { return ArrVar{Name: name} }

// Plus builds X + Y, folding literal operands.
func Plus(x, y Term) Term {
	if lx, ok := x.(IntLit); ok {
		if ly, ok := y.(IntLit); ok {
			return IntLit{Val: lx.Val + ly.Val}
		}
		if lx.Val == 0 {
			return y
		}
	}
	if ly, ok := y.(IntLit); ok && ly.Val == 0 {
		return x
	}
	return Add{X: x, Y: y}
}

// Minus builds X - Y, folding literal operands.
func Minus(x, y Term) Term {
	if lx, ok := x.(IntLit); ok {
		if ly, ok := y.(IntLit); ok {
			return IntLit{Val: lx.Val - ly.Val}
		}
	}
	if ly, ok := y.(IntLit); ok && ly.Val == 0 {
		return x
	}
	return Sub{X: x, Y: y}
}

// Times builds c*X, folding trivial coefficients.
func Times(c int64, x Term) Term {
	switch {
	case c == 0:
		return IntLit{Val: 0}
	case c == 1:
		return x
	}
	if lx, ok := x.(IntLit); ok {
		return IntLit{Val: c * lx.Val}
	}
	return Mul{C: c, X: x}
}

// Sel builds the array read A[idx].
func Sel(a Arr, idx Term) Term { return Select{A: a, Idx: idx} }

// Upd builds the functional array write upd(a, idx, val).
func Upd(a Arr, idx, val Term) Arr { return Store{A: a, Idx: idx, Val: val} }

// App builds an uninterpreted function application.
func App(f string, args ...Term) Term { return Apply{F: f, Args: args} }

// TermEq reports structural equality of two terms. (Historically this
// compared String() renderings; printing is injective on the grammar, so the
// allocation-free structural walk decides the same relation.)
func TermEq(x, y Term) bool { return TermStructEq(x, y) }

// ArrEq reports structural equality of two array terms.
func ArrEq(x, y Arr) bool { return ArrStructEq(x, y) }

// SubstituteTerm replaces integer variables per sub and array variables per
// asub throughout t. Missing entries are left unchanged, and unchanged
// subterms are shared with t.
func SubstituteTerm(t Term, sub map[string]Term, asub map[string]Arr) Term {
	r, _ := substTerm(t, sub, asub)
	return r
}

// SubstituteArr replaces variables throughout an array term.
func SubstituteArr(a Arr, sub map[string]Term, asub map[string]Arr) Arr {
	r, _ := substArr(a, sub, asub)
	return r
}

// substTerm is SubstituteTerm's structure-sharing form: it returns t itself
// and false when nothing was replaced and no constructor folds.
func substTerm(t Term, sub map[string]Term, asub map[string]Arr) (Term, bool) {
	switch u := t.(type) {
	case Var:
		if r, ok := sub[u.Name]; ok {
			return r, true
		}
		return t, false
	case IntLit:
		return t, false
	case Add:
		x, cx := substTerm(u.X, sub, asub)
		y, cy := substTerm(u.Y, sub, asub)
		if !cx && !cy && plusNormal(x, y) {
			return t, false
		}
		return Plus(x, y), true
	case Sub:
		x, cx := substTerm(u.X, sub, asub)
		y, cy := substTerm(u.Y, sub, asub)
		if !cx && !cy && minusNormal(x, y) {
			return t, false
		}
		return Minus(x, y), true
	case Mul:
		x, cx := substTerm(u.X, sub, asub)
		if !cx && timesNormal(u.C, x) {
			return t, false
		}
		return Times(u.C, x), true
	case Select:
		a, ca := substArr(u.A, sub, asub)
		idx, ci := substTerm(u.Idx, sub, asub)
		if !ca && !ci {
			return t, false
		}
		return Select{A: a, Idx: idx}, true
	case Apply:
		var args []Term
		for i, a := range u.Args {
			r, ch := substTerm(a, sub, asub)
			if ch && args == nil {
				args = make([]Term, len(u.Args))
				copy(args, u.Args[:i])
			}
			if args != nil {
				args[i] = r
			}
		}
		if args == nil {
			return t, false
		}
		return Apply{F: u.F, Args: args}, true
	}
	panic(fmt.Sprintf("logic: unknown term %T", t))
}

// substArr is SubstituteArr's structure-sharing form.
func substArr(a Arr, sub map[string]Term, asub map[string]Arr) (Arr, bool) {
	switch b := a.(type) {
	case ArrVar:
		if r, ok := asub[b.Name]; ok {
			return r, true
		}
		return a, false
	case Store:
		arr, ca := substArr(b.A, sub, asub)
		idx, ci := substTerm(b.Idx, sub, asub)
		val, cv := substTerm(b.Val, sub, asub)
		if !ca && !ci && !cv {
			return a, false
		}
		return Store{A: arr, Idx: idx, Val: val}, true
	}
	panic(fmt.Sprintf("logic: unknown array term %T", a))
}

// TermVars adds the free integer variables of t to vs and array variables to avs.
func TermVars(t Term, vs map[string]bool, avs map[string]bool) {
	switch t := t.(type) {
	case Var:
		vs[t.Name] = true
	case IntLit:
	case Add:
		TermVars(t.X, vs, avs)
		TermVars(t.Y, vs, avs)
	case Sub:
		TermVars(t.X, vs, avs)
		TermVars(t.Y, vs, avs)
	case Mul:
		TermVars(t.X, vs, avs)
	case Select:
		ArrTermVars(t.A, vs, avs)
		TermVars(t.Idx, vs, avs)
	case Apply:
		for _, a := range t.Args {
			TermVars(a, vs, avs)
		}
	default:
		panic(fmt.Sprintf("logic: unknown term %T", t))
	}
}

// ArrTermVars adds the free variables of array term a to vs/avs.
func ArrTermVars(a Arr, vs map[string]bool, avs map[string]bool) {
	switch a := a.(type) {
	case ArrVar:
		avs[a.Name] = true
	case Store:
		ArrTermVars(a.A, vs, avs)
		TermVars(a.Idx, vs, avs)
		TermVars(a.Val, vs, avs)
	default:
		panic(fmt.Sprintf("logic: unknown array term %T", a))
	}
}

// SortedKeys returns the keys of a string-keyed set in sorted order; used to
// keep every iteration over variable sets deterministic.
func SortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
