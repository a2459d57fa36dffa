package logic

// Structural hashing and allocation-free structural equality.
//
// Every syntax-tree node kind gets a distinct tag byte; hashes are an
// FNV-1a-style fold over tags, embedded strings, and integer payloads, with
// child counts mixed in so that variadic nodes (And/Or/Apply) of different
// arities cannot collide by concatenation. HashFormula/HashTerm also count
// nodes, so interning can record a size without a second traversal.
//
// The structural-equality predicates replace the historical
// `x.String() == y.String()` implementations of TermEq/ArrEq/FormulaEq.
// Printing is injective on this grammar (variable and function names are
// identifiers, literals print distinctly), so structural equality decides
// exactly the same relation — without serializing either side.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Node tags. Terms and formulas share one tag space.
const (
	tagVar uint64 = iota + 1
	tagIntLit
	tagAdd
	tagSub
	tagMul
	tagSelect
	tagApply
	tagArrVar
	tagStore
	tagAtom
	tagBool
	tagNot
	tagAnd
	tagOr
	tagImplies
	tagForall
	tagExists
	tagUnknown
	tagAEq
)

func mix(h, v uint64) uint64 { return (h ^ v) * fnvPrime64 }

func mixString(h uint64, s string) uint64 {
	h = mix(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// HashTerm returns the structural hash of t and adds its node count to *n.
func HashTerm(t Term, n *int) uint64 { return hashTerm(fnvOffset64, t, n) }

// HashArr returns the structural hash of a and adds its node count to *n.
func HashArr(a Arr, n *int) uint64 { return hashArr(fnvOffset64, a, n) }

// HashFormula returns the structural hash of f and adds its node count to *n.
func HashFormula(f Formula, n *int) uint64 { return hashFormula(fnvOffset64, f, n) }

func hashTerm(h uint64, t Term, n *int) uint64 {
	*n++
	switch t := t.(type) {
	case Var:
		return mixString(mix(h, tagVar), t.Name)
	case IntLit:
		return mix(mix(h, tagIntLit), uint64(t.Val))
	case Add:
		return hashTerm(hashTerm(mix(h, tagAdd), t.X, n), t.Y, n)
	case Sub:
		return hashTerm(hashTerm(mix(h, tagSub), t.X, n), t.Y, n)
	case Mul:
		return hashTerm(mix(mix(h, tagMul), uint64(t.C)), t.X, n)
	case Select:
		return hashTerm(hashArr(mix(h, tagSelect), t.A, n), t.Idx, n)
	case Apply:
		h = mix(mixString(mix(h, tagApply), t.F), uint64(len(t.Args)))
		for _, a := range t.Args {
			h = hashTerm(h, a, n)
		}
		return h
	}
	panic("logic: unknown term in hashTerm")
}

func hashArr(h uint64, a Arr, n *int) uint64 {
	*n++
	switch a := a.(type) {
	case ArrVar:
		return mixString(mix(h, tagArrVar), a.Name)
	case Store:
		return hashTerm(hashTerm(hashArr(mix(h, tagStore), a.A, n), a.Idx, n), a.Val, n)
	}
	panic("logic: unknown array term in hashArr")
}

func hashFormula(h uint64, f Formula, n *int) uint64 {
	*n++
	switch f := f.(type) {
	case Atom:
		return hashTerm(hashTerm(mix(mix(h, tagAtom), uint64(f.Op)), f.X, n), f.Y, n)
	case Bool:
		v := uint64(0)
		if f.Val {
			v = 1
		}
		return mix(mix(h, tagBool), v)
	case Not:
		return hashFormula(mix(h, tagNot), f.F, n)
	case And:
		h = mix(mix(h, tagAnd), uint64(len(f.Fs)))
		for _, g := range f.Fs {
			h = hashFormula(h, g, n)
		}
		return h
	case Or:
		h = mix(mix(h, tagOr), uint64(len(f.Fs)))
		for _, g := range f.Fs {
			h = hashFormula(h, g, n)
		}
		return h
	case Implies:
		return hashFormula(hashFormula(mix(h, tagImplies), f.A, n), f.B, n)
	case Forall:
		h = mix(mix(h, tagForall), uint64(len(f.Vars)))
		for _, v := range f.Vars {
			h = mixString(h, v)
		}
		return hashFormula(h, f.Body, n)
	case Exists:
		h = mix(mix(h, tagExists), uint64(len(f.Vars)))
		for _, v := range f.Vars {
			h = mixString(h, v)
		}
		return hashFormula(h, f.Body, n)
	case Unknown:
		return mixString(mix(h, tagUnknown), f.Name)
	case AEq:
		return hashArr(hashArr(mix(h, tagAEq), f.L, n), f.R, n)
	}
	panic("logic: unknown formula in hashFormula")
}

// TermStructEq reports structural equality of two terms without serializing.
func TermStructEq(x, y Term) bool {
	switch x := x.(type) {
	case Var:
		y, ok := y.(Var)
		return ok && x.Name == y.Name
	case IntLit:
		y, ok := y.(IntLit)
		return ok && x.Val == y.Val
	case Add:
		y, ok := y.(Add)
		return ok && TermStructEq(x.X, y.X) && TermStructEq(x.Y, y.Y)
	case Sub:
		y, ok := y.(Sub)
		return ok && TermStructEq(x.X, y.X) && TermStructEq(x.Y, y.Y)
	case Mul:
		y, ok := y.(Mul)
		return ok && x.C == y.C && TermStructEq(x.X, y.X)
	case Select:
		y, ok := y.(Select)
		return ok && ArrStructEq(x.A, y.A) && TermStructEq(x.Idx, y.Idx)
	case Apply:
		y, ok := y.(Apply)
		if !ok || x.F != y.F || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if !TermStructEq(x.Args[i], y.Args[i]) {
				return false
			}
		}
		return true
	}
	panic("logic: unknown term in TermStructEq")
}

// ArrStructEq reports structural equality of two array terms.
func ArrStructEq(x, y Arr) bool {
	switch x := x.(type) {
	case ArrVar:
		y, ok := y.(ArrVar)
		return ok && x.Name == y.Name
	case Store:
		y, ok := y.(Store)
		return ok && ArrStructEq(x.A, y.A) && TermStructEq(x.Idx, y.Idx) && TermStructEq(x.Val, y.Val)
	}
	panic("logic: unknown array term in ArrStructEq")
}

// FormulaStructEq reports structural equality of two formulas.
func FormulaStructEq(a, b Formula) bool {
	switch a := a.(type) {
	case Atom:
		b, ok := b.(Atom)
		return ok && a.Op == b.Op && TermStructEq(a.X, b.X) && TermStructEq(a.Y, b.Y)
	case Bool:
		b, ok := b.(Bool)
		return ok && a.Val == b.Val
	case Not:
		b, ok := b.(Not)
		return ok && FormulaStructEq(a.F, b.F)
	case And:
		b, ok := b.(And)
		if !ok || len(a.Fs) != len(b.Fs) {
			return false
		}
		for i := range a.Fs {
			if !FormulaStructEq(a.Fs[i], b.Fs[i]) {
				return false
			}
		}
		return true
	case Or:
		b, ok := b.(Or)
		if !ok || len(a.Fs) != len(b.Fs) {
			return false
		}
		for i := range a.Fs {
			if !FormulaStructEq(a.Fs[i], b.Fs[i]) {
				return false
			}
		}
		return true
	case Implies:
		b, ok := b.(Implies)
		return ok && FormulaStructEq(a.A, b.A) && FormulaStructEq(a.B, b.B)
	case Forall:
		b, ok := b.(Forall)
		return ok && stringsEq(a.Vars, b.Vars) && FormulaStructEq(a.Body, b.Body)
	case Exists:
		b, ok := b.(Exists)
		return ok && stringsEq(a.Vars, b.Vars) && FormulaStructEq(a.Body, b.Body)
	case Unknown:
		b, ok := b.(Unknown)
		return ok && a.Name == b.Name
	case AEq:
		b, ok := b.(AEq)
		return ok && ArrStructEq(a.L, b.L) && ArrStructEq(a.R, b.R)
	}
	panic("logic: unknown formula in FormulaStructEq")
}

func stringsEq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// formulaSet is an order-insensitive membership set of formulas keyed by
// structural hash with structural-equality collision resolution. It replaces
// String()-keyed dedup maps on hot paths (Simplify's wide operand lists) so
// membership tests never serialize. Each hash maps straight to its first
// formula; the rare further formulas with the same hash go to collisions.
type formulaSet struct {
	first      map[uint64]Formula
	collisions map[uint64][]Formula
}

// add inserts f and reports whether it was absent. sizeHint presizes the set
// on first use.
func (s *formulaSet) add(f Formula, sizeHint int) bool {
	if s.first == nil {
		s.first = make(map[uint64]Formula, sizeHint)
	}
	n := 0
	h := HashFormula(f, &n)
	g, ok := s.first[h]
	if !ok {
		s.first[h] = f
		return true
	}
	if FormulaStructEq(f, g) {
		return false
	}
	for _, g := range s.collisions[h] {
		if FormulaStructEq(f, g) {
			return false
		}
	}
	if s.collisions == nil {
		s.collisions = make(map[uint64][]Formula)
	}
	s.collisions[h] = append(s.collisions[h], f)
	return true
}

// TrivialVerdict decides syntactically trivial formulas without touching the
// solver, the cache, or the allocator: boolean constants, ground literal
// comparisons, and reflexive atoms (x ⊛ x). The second result reports whether
// a verdict was reached.
func TrivialVerdict(f Formula) (verdict, ok bool) {
	switch f := f.(type) {
	case Bool:
		return f.Val, true
	case Atom:
		if x, xok := f.X.(IntLit); xok {
			if y, yok := f.Y.(IntLit); yok {
				return evalRel(f.Op, x.Val, y.Val), true
			}
		}
		if TermStructEq(f.X, f.Y) {
			switch f.Op {
			case Eq, Le, Ge:
				return true, true
			case Neq, Lt, Gt:
				return false, true
			}
		}
	}
	return false, false
}
