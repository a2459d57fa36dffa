package logic

import (
	"fmt"
	"strings"
)

// RelOp is a binary relation between integer terms.
type RelOp int

// Relational operators. Neq, Gt and Ge are normalized away early (see
// NormalizeAtom) so the solver core only sees Eq, Le and Lt.
const (
	Eq RelOp = iota
	Neq
	Lt
	Le
	Gt
	Ge
)

func (op RelOp) String() string {
	switch op {
	case Eq:
		return "="
	case Neq:
		return "!="
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	}
	return "?"
}

// Negate returns the complementary relation.
func (op RelOp) Negate() RelOp {
	switch op {
	case Eq:
		return Neq
	case Neq:
		return Eq
	case Lt:
		return Ge
	case Le:
		return Gt
	case Gt:
		return Le
	case Ge:
		return Lt
	}
	panic("logic: bad RelOp")
}

// Flip returns the relation with its arguments swapped (x op y == y flip(op) x).
func (op RelOp) Flip() RelOp {
	switch op {
	case Lt:
		return Gt
	case Le:
		return Ge
	case Gt:
		return Lt
	case Ge:
		return Le
	}
	return op
}

// Formula is a first-order formula over integer/array terms, possibly
// containing template unknowns.
type Formula interface {
	isFormula()
	String() string
}

// Atom is the relation X Op Y.
type Atom struct {
	Op   RelOp
	X, Y Term
}

// Bool is a formula constant.
type Bool struct{ Val bool }

// Not is logical negation.
type Not struct{ F Formula }

// And is n-ary conjunction; an empty And is true.
type And struct{ Fs []Formula }

// Or is n-ary disjunction; an empty Or is false.
type Or struct{ Fs []Formula }

// Implies is A ⇒ B.
type Implies struct{ A, B Formula }

// Forall is ∀Vars: Body.
type Forall struct {
	Vars []string
	Body Formula
}

// Exists is ∃Vars: Body.
type Exists struct {
	Vars []string
	Body Formula
}

// Unknown is a template hole that an invariant-inference algorithm fills with
// a conjunction of predicates.
type Unknown struct{ Name string }

func (Atom) isFormula()    {}
func (Bool) isFormula()    {}
func (Not) isFormula()     {}
func (And) isFormula()     {}
func (Or) isFormula()      {}
func (Implies) isFormula() {}
func (Forall) isFormula()  {}
func (Exists) isFormula()  {}
func (Unknown) isFormula() {}

func (a Atom) String() string { return fmt.Sprintf("%s %s %s", a.X, a.Op, a.Y) }
func (b Bool) String() string {
	if b.Val {
		return "true"
	}
	return "false"
}
func (n Not) String() string { return fmt.Sprintf("!(%s)", n.F) }
func (a And) String() string { return joinFormulas(a.Fs, " && ", "true") }
func (o Or) String() string  { return joinFormulas(o.Fs, " || ", "false") }
func (i Implies) String() string {
	return fmt.Sprintf("(%s) => (%s)", i.A, i.B)
}
func (f Forall) String() string {
	return fmt.Sprintf("forall %s: (%s)", strings.Join(f.Vars, ","), f.Body)
}
func (e Exists) String() string {
	return fmt.Sprintf("exists %s: (%s)", strings.Join(e.Vars, ","), e.Body)
}
func (u Unknown) String() string { return "$" + u.Name }

func joinFormulas(fs []Formula, sep, empty string) string {
	if len(fs) == 0 {
		return empty
	}
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = "(" + f.String() + ")"
	}
	return strings.Join(parts, sep)
}

// True and False are the formula constants.
var (
	True  Formula = Bool{Val: true}
	False Formula = Bool{Val: false}
)

// Rel builds the atom x op y.
func Rel(op RelOp, x, y Term) Formula { return Atom{Op: op, X: x, Y: y} }

// EqF builds x = y.
func EqF(x, y Term) Formula { return Atom{Op: Eq, X: x, Y: y} }

// NeqF builds x ≠ y.
func NeqF(x, y Term) Formula { return Atom{Op: Neq, X: x, Y: y} }

// LtF builds x < y.
func LtF(x, y Term) Formula { return Atom{Op: Lt, X: x, Y: y} }

// LeF builds x ≤ y.
func LeF(x, y Term) Formula { return Atom{Op: Le, X: x, Y: y} }

// GtF builds x > y.
func GtF(x, y Term) Formula { return Atom{Op: Gt, X: x, Y: y} }

// GeF builds x ≥ y.
func GeF(x, y Term) Formula { return Atom{Op: Ge, X: x, Y: y} }

// Conj builds a flattened conjunction, short-circuiting constants.
func Conj(fs ...Formula) Formula { return junction(fs, true) }

// Disj builds a flattened disjunction, short-circuiting constants.
func Disj(fs ...Formula) Formula { return junction(fs, false) }

// junction builds the conjunction (isAnd) or disjunction of fs into a fresh
// slice of exactly the result's size: the absorbing constant short-circuits,
// the neutral one drops, and operands of the same kind are spliced in (one
// level deep).
func junction(fs []Formula, isAnd bool) Formula {
	n := 0
	for _, f := range fs {
		if b, ok := f.(Bool); ok {
			if b.Val != isAnd {
				return f
			}
			continue
		}
		if sub, ok := operandsOf(f, isAnd); ok {
			n += len(sub)
		} else {
			n++
		}
	}
	if n == 0 {
		return Bool{Val: isAnd}
	}
	out := make([]Formula, 0, n)
	for _, f := range fs {
		if isBool(f) {
			continue
		}
		if sub, ok := operandsOf(f, isAnd); ok {
			out = append(out, sub...)
		} else {
			out = append(out, f)
		}
	}
	switch {
	case n == 1:
		return out[0]
	case isAnd:
		return And{Fs: out}
	}
	return Or{Fs: out}
}

// operandsOf returns the operands of f when it is an And (isAnd) or an Or
// (!isAnd).
func operandsOf(f Formula, isAnd bool) ([]Formula, bool) {
	switch g := f.(type) {
	case And:
		return g.Fs, isAnd
	case Or:
		return g.Fs, !isAnd
	}
	return nil, false
}

// Imp builds A ⇒ B, simplifying constant operands.
func Imp(a, b Formula) Formula {
	if ab, ok := a.(Bool); ok {
		if ab.Val {
			return b
		}
		return True
	}
	if bb, ok := b.(Bool); ok {
		if bb.Val {
			return True
		}
		return Neg(a)
	}
	return Implies{A: a, B: b}
}

// Neg builds ¬F, simplifying constants and double negation.
func Neg(f Formula) Formula {
	switch f := f.(type) {
	case Bool:
		return Bool{Val: !f.Val}
	case Not:
		return f.F
	case Atom:
		return Atom{Op: f.Op.Negate(), X: f.X, Y: f.Y}
	}
	return Not{F: f}
}

// All builds ∀vars: body (no-op for an empty variable list).
func All(vars []string, body Formula) Formula {
	if len(vars) == 0 {
		return body
	}
	if b, ok := body.(Bool); ok {
		return b
	}
	return Forall{Vars: vars, Body: body}
}

// Any builds ∃vars: body (no-op for an empty variable list).
func Any(vars []string, body Formula) Formula {
	if len(vars) == 0 {
		return body
	}
	if b, ok := body.(Bool); ok {
		return b
	}
	return Exists{Vars: vars, Body: body}
}

// FormulaEq reports structural equality. (Historically via canonical
// printing; the structural walk decides the same relation without
// serializing either side.)
func FormulaEq(a, b Formula) bool { return FormulaStructEq(a, b) }

// Substitute replaces free integer variables per sub and free array variables
// per asub throughout f. Bound variables shadow substitution entries.
// Subtrees the substitution leaves unchanged are shared with f.
func Substitute(f Formula, sub map[string]Term, asub map[string]Arr) Formula {
	g, _ := substitute(f, sub, asub)
	return g
}

func substitute(f Formula, sub map[string]Term, asub map[string]Arr) (Formula, bool) {
	switch g := f.(type) {
	case Atom:
		return substAtom(f, g, sub, asub)
	case Forall:
		body, ch := substitute(g.Body, shadow(sub, g.Vars), asub)
		if !ch && quantNormal(g.Vars, body) {
			return f, false
		}
		return All(g.Vars, body), true
	case Exists:
		body, ch := substitute(g.Body, shadow(sub, g.Vars), asub)
		if !ch && quantNormal(g.Vars, body) {
			return f, false
		}
		return Any(g.Vars, body), true
	case AEq:
		return substAEq(f, g, sub, asub)
	}
	return MapChildren(f, func(h Formula) (Formula, bool) { return substitute(h, sub, asub) })
}

// substAtom substitutes into both sides of the atom g, which is f unboxed.
func substAtom(f Formula, g Atom, sub map[string]Term, asub map[string]Arr) (Formula, bool) {
	x, cx := substTerm(g.X, sub, asub)
	y, cy := substTerm(g.Y, sub, asub)
	if !cx && !cy {
		return f, false
	}
	return Atom{Op: g.Op, X: x, Y: y}, true
}

// substAEq substitutes into both sides of the array equality g, which is f
// unboxed.
func substAEq(f Formula, g AEq, sub map[string]Term, asub map[string]Arr) (Formula, bool) {
	l, cl := substArr(g.L, sub, asub)
	r, cr := substArr(g.R, sub, asub)
	if !cl && !cr {
		return f, false
	}
	return AEq{L: l, R: r}, true
}

// shadow returns sub with the given bound variables removed.
func shadow(sub map[string]Term, bound []string) map[string]Term {
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

// FreeVars returns the free integer and array variables of f.
func FreeVars(f Formula) (vs map[string]bool, avs map[string]bool) {
	vs, avs = map[string]bool{}, map[string]bool{}
	freeVars(f, map[string]bool{}, vs, avs)
	return vs, avs
}

func freeVars(f Formula, bound, vs, avs map[string]bool) {
	collect := func(t Term) {
		tv, ta := map[string]bool{}, map[string]bool{}
		TermVars(t, tv, ta)
		for v := range tv {
			if !bound[v] {
				vs[v] = true
			}
		}
		for a := range ta {
			avs[a] = true
		}
	}
	switch f := f.(type) {
	case Atom:
		collect(f.X)
		collect(f.Y)
	case Bool, Unknown:
	case Not:
		freeVars(f.F, bound, vs, avs)
	case And:
		for _, g := range f.Fs {
			freeVars(g, bound, vs, avs)
		}
	case Or:
		for _, g := range f.Fs {
			freeVars(g, bound, vs, avs)
		}
	case Implies:
		freeVars(f.A, bound, vs, avs)
		freeVars(f.B, bound, vs, avs)
	case Forall:
		freeVars(f.Body, extendBound(bound, f.Vars), vs, avs)
	case Exists:
		freeVars(f.Body, extendBound(bound, f.Vars), vs, avs)
	case AEq:
		freeVarsAEqCase(f, bound, vs, avs)
	default:
		panic(fmt.Sprintf("logic: unknown formula %T", f))
	}
}

func extendBound(bound map[string]bool, vars []string) map[string]bool {
	out := make(map[string]bool, len(bound)+len(vars))
	for k := range bound {
		out[k] = true
	}
	for _, v := range vars {
		out[v] = true
	}
	return out
}

// Unknowns returns the unknown names occurring in f, in first-occurrence order.
func Unknowns(f Formula) []string {
	var out []string
	seen := map[string]bool{}
	var walk func(Formula)
	walk = func(f Formula) {
		switch f := f.(type) {
		case Unknown:
			if !seen[f.Name] {
				seen[f.Name] = true
				out = append(out, f.Name)
			}
		case Not:
			walk(f.F)
		case And:
			for _, g := range f.Fs {
				walk(g)
			}
		case Or:
			for _, g := range f.Fs {
				walk(g)
			}
		case Implies:
			walk(f.A)
			walk(f.B)
		case Forall:
			walk(f.Body)
		case Exists:
			walk(f.Body)
		}
	}
	walk(f)
	return out
}

// FillUnknowns replaces each unknown v in f with the conjunction of fill(v).
// Unknowns missing from fill are left in place.
func FillUnknowns(f Formula, fill map[string]Formula) Formula {
	switch f := f.(type) {
	case Unknown:
		if g, ok := fill[f.Name]; ok {
			return g
		}
		return f
	case Atom, Bool, AEq:
		return f
	case Not:
		return Neg(FillUnknowns(f.F, fill))
	case And:
		out := make([]Formula, len(f.Fs))
		for i, g := range f.Fs {
			out[i] = FillUnknowns(g, fill)
		}
		return Conj(out...)
	case Or:
		out := make([]Formula, len(f.Fs))
		for i, g := range f.Fs {
			out[i] = FillUnknowns(g, fill)
		}
		return Disj(out...)
	case Implies:
		return Imp(FillUnknowns(f.A, fill), FillUnknowns(f.B, fill))
	case Forall:
		return All(f.Vars, FillUnknowns(f.Body, fill))
	case Exists:
		return Any(f.Vars, FillUnknowns(f.Body, fill))
	}
	panic(fmt.Sprintf("logic: unknown formula %T", f))
}
