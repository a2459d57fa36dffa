package logic

import (
	"fmt"
	"strconv"
)

// NNF converts f (which must be unknown-free) to negation normal form:
// implications are eliminated, and negations are pushed onto atoms where they
// are absorbed by flipping the relational operator. Subtrees already in
// negation normal form are shared with f.
func NNF(f Formula) Formula {
	g, _ := nnf(f, false)
	return g
}

// nnfPos is nnf without a pending negation, shaped for MapChildren.
func nnfPos(f Formula) (Formula, bool) { return nnf(f, false) }

// nnf converts f, negated when negate is set. Only the positive polarity can
// return f itself; a negated result is always rebuilt.
func nnf(f Formula, negate bool) (Formula, bool) {
	switch g := f.(type) {
	case Atom:
		if negate {
			return Atom{Op: g.Op.Negate(), X: g.X, Y: g.Y}, true
		}
		return f, false
	case Bool:
		if negate {
			return Bool{Val: !g.Val}, true
		}
		return f, false
	case Not:
		h, _ := nnf(g.F, !negate)
		return h, true
	case And:
		if negate {
			return DisjOwned(nnfNegAll(g.Fs)), true
		}
	case Or:
		if negate {
			return ConjOwned(nnfNegAll(g.Fs)), true
		}
	case Implies:
		// a ⇒ b  ≡  ¬a ∨ b
		if negate {
			a, _ := nnf(g.A, false)
			b, _ := nnf(g.B, true)
			return Conj(a, b), true
		}
		a, _ := nnf(g.A, true)
		b, _ := nnf(g.B, false)
		return Disj(a, b), true
	case Forall:
		if negate {
			b, _ := nnf(g.Body, true)
			return Any(g.Vars, b), true
		}
	case Exists:
		if negate {
			b, _ := nnf(g.Body, true)
			return All(g.Vars, b), true
		}
	case Unknown:
		panic("logic: NNF applied to a formula with unresolved unknowns")
	default:
		panic(fmt.Sprintf("logic: unknown formula %T", f))
	}
	return MapChildren(f, nnfPos)
}

// nnfNegAll converts the negation of each of fs into a fresh slice.
func nnfNegAll(fs []Formula) []Formula {
	out := make([]Formula, len(fs))
	for i, g := range fs {
		out[i], _ = nnf(g, true)
	}
	return out
}

// Namer hands out fresh variable names with a common prefix.
type Namer struct {
	prefix string
	n      int
}

// NewNamer returns a Namer producing prefix0, prefix1, ...
func NewNamer(prefix string) *Namer { return &Namer{prefix: prefix} }

// Fresh returns the next unused name.
func (nm *Namer) Fresh() string {
	nm.n++
	return nm.prefix + strconv.Itoa(nm.n)
}

// StandardizeApart renames every bound variable in f to a fresh name from nm,
// so that no two quantifiers bind the same name and no bound name collides
// with a free name. The input must be unknown-free. Quantifiers are always
// rebuilt; any other subtree the renaming leaves unchanged is shared with f.
func StandardizeApart(f Formula, nm *Namer) Formula {
	g, _ := standardize(f, nm, map[string]Term{})
	return g
}

func standardize(f Formula, nm *Namer, ren map[string]Term) (Formula, bool) {
	switch g := f.(type) {
	case Atom:
		return substAtom(f, g, ren, nil)
	case Forall:
		vars, undo := renameBound(g.Vars, nm, ren)
		body, _ := standardize(g.Body, nm, ren)
		undoRename(g.Vars, undo, ren)
		return All(vars, body), true
	case Exists:
		vars, undo := renameBound(g.Vars, nm, ren)
		body, _ := standardize(g.Body, nm, ren)
		undoRename(g.Vars, undo, ren)
		return Any(vars, body), true
	case Unknown:
		panic("logic: StandardizeApart applied to a formula with unresolved unknowns")
	case AEq:
		return substAEq(f, g, ren, nil)
	}
	return MapChildren(f, func(h Formula) (Formula, bool) { return standardize(h, nm, ren) })
}

// renameBound binds each var to a fresh name in ren, in place, returning the
// fresh names and the shadowed previous bindings (nil entries mark names that
// were unbound). Mutate-and-undo keeps standardize from copying the whole
// rename map at every quantifier, which dominated its allocation volume.
func renameBound(vars []string, nm *Namer, ren map[string]Term) ([]string, []Term) {
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

// undoRename restores the bindings shadowed by renameBound, newest first so
// duplicate names within one quantifier unwind correctly.
func undoRename(vars []string, undo []Term, ren map[string]Term) {
	for i := len(vars) - 1; i >= 0; i-- {
		if undo[i] == nil {
			delete(ren, vars[i])
		} else {
			ren[vars[i]] = undo[i]
		}
	}
}

// Simplify performs shallow logical simplification: constant folding,
// flattening of nested conjunctions/disjunctions, removal of duplicate
// conjuncts/disjuncts, and evaluation of ground atoms over literals.
// Subtrees it leaves unchanged are shared with f; Simplify(Simplify(f))
// returns its argument without allocating.
func Simplify(f Formula) Formula {
	g, _ := simplify(f)
	return g
}

func simplify(f Formula) (Formula, bool) {
	switch g := f.(type) {
	case Atom:
		if x, ok := g.X.(IntLit); ok {
			if y, ok := g.Y.(IntLit); ok {
				return Bool{Val: evalRel(g.Op, x.Val, y.Val)}, true
			}
		}
		if TermEq(g.X, g.Y) {
			switch g.Op {
			case Eq, Le, Ge:
				return True, true
			case Neq, Lt, Gt:
				return False, true
			}
		}
		return f, false
	case And:
		return simplifyNary(f, g.Fs, true)
	case Or:
		return simplifyNary(f, g.Fs, false)
	case AEq:
		if ArrEq(g.L, g.R) {
			return True, true
		}
		return f, false
	}
	return MapChildren(f, simplify)
}

// dedupLinear is the operand count up to which simplifyNary deduplicates by
// pairwise structural comparison; past it a hash set takes over.
const dedupLinear = 8

// simplifyNary simplifies the operands fs of f, a conjunction (isAnd) or a
// disjunction: the absorbing constant short-circuits, the neutral constant
// drops, nested operands of the same kind are flattened, and structural
// duplicates drop (the first occurrence is kept).
func simplifyNary(f Formula, fs []Formula, isAnd bool) (Formula, bool) {
	// out stays nil while every operand so far is kept as is; the kept
	// operands are then fs[:i].
	var out []Formula
	var seen formulaSet
	for i, g := range fs {
		s, ch := simplify(g)
		if b, ok := s.(Bool); ok {
			if b.Val != isAnd {
				return s, true
			}
			if out == nil {
				out = keptPrefix(fs, i)
			}
			continue
		}
		if flat, nested := operandsOf(s, isAnd); nested {
			if out == nil {
				out = keptPrefix(fs, i)
			}
			for _, h := range flat {
				if keepNew(out, &seen, h, len(fs)) {
					out = append(out, h)
				}
			}
			continue
		}
		if out == nil {
			isNew := keepNew(fs[:i], &seen, s, len(fs))
			if isNew && !ch {
				continue
			}
			out = keptPrefix(fs, i)
			if !isNew {
				continue
			}
		} else if !keepNew(out, &seen, s, len(fs)) {
			continue
		}
		out = append(out, s)
	}
	if out == nil {
		switch len(fs) {
		case 0:
			return Bool{Val: isAnd}, true
		case 1:
			return fs[0], true
		}
		return f, false
	}
	if isAnd {
		return ConjOwned(out), true
	}
	return DisjOwned(out), true
}

// keptPrefix copies the operands kept unchanged so far, fs[:i], into a slice
// that the remaining operands are appended to.
func keptPrefix(fs []Formula, i int) []Formula {
	return append(make([]Formula, 0, len(fs)), fs[:i]...)
}

// keepNew reports whether f is absent from kept, the operands simplifyNary
// has kept so far out of n input operands. Short lists are scanned
// pairwise; once kept reaches dedupLinear, seen indexes every kept operand
// by hash, so each kept operand must pass through keepNew.
func keepNew(kept []Formula, seen *formulaSet, f Formula, n int) bool {
	if seen.first == nil {
		if len(kept) < dedupLinear {
			for _, k := range kept {
				if FormulaStructEq(k, f) {
					return false
				}
			}
			return true
		}
		for _, k := range kept {
			seen.add(k, n)
		}
	}
	return seen.add(f, n)
}

func evalRel(op RelOp, x, y int64) bool {
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
