// Package logictest generates random formulas for differential tests of the
// formula rewrites. The generator builds nodes directly, not through the
// canonical constructors, so its output covers every Formula, Term and Arr
// variant including the shapes the constructors would fold away: And{} and
// And{x}, nested And/Or, duplicate and constant operands, wide operand lists,
// Not{Not{…}}, Not{Atom}, x+0, 1*x, 0*x, literal arithmetic, empty and
// constant-bodied quantifiers, and array equalities.
package logictest

import (
	"math/rand"

	"repro/internal/logic"
)

// Options selects the optional formula variants.
type Options struct {
	// Unknowns allows template unknowns, which NNF and StandardizeApart
	// reject.
	Unknowns bool
	// ArrayEq allows array equalities, which NNF rejects.
	ArrayEq bool
	// MaxWidth bounds the operand count of And/Or nodes; 0 means 20, wide
	// enough to pass the 8-operand point where Simplify's dedup switches
	// from pairwise comparison to a hash set.
	MaxWidth int
}

// Gen draws formulas, terms and array terms from a seeded source. Variable
// names come from small pools so that quantifiers shadow and capture each
// other and substitutions hit.
type Gen struct {
	r    *rand.Rand
	opts Options
}

// New returns a generator seeded with seed.
func New(seed int64, opts Options) *Gen {
	if opts.MaxWidth == 0 {
		opts.MaxWidth = 20
	}
	return &Gen{r: rand.New(rand.NewSource(seed)), opts: opts}
}

// Vars is the integer variable pool.
var Vars = []string{"x", "y", "z", "i", "j"}

// Arrays is the array variable pool; A and A#1 are one SSA family.
var Arrays = []string{"A", "A#1", "B"}

// Formula returns a random formula of at most the given depth.
func (g *Gen) Formula(depth int) logic.Formula {
	if depth <= 0 {
		return g.leaf()
	}
	switch g.r.Intn(15) {
	case 0, 1:
		return g.leaf()
	case 2:
		return logic.Not{F: g.Formula(depth - 1)}
	case 3:
		// Double negation and negated atoms.
		return logic.Not{F: logic.Not{F: g.Formula(depth - 1)}}
	case 4, 5:
		return logic.And{Fs: g.Operands(depth)}
	case 6, 7:
		return logic.Or{Fs: g.Operands(depth)}
	case 8:
		return logic.Implies{A: g.Formula(depth - 1), B: g.Formula(depth - 1)}
	case 9:
		return logic.Forall{Vars: g.binders(), Body: g.Formula(depth - 1)}
	case 10:
		return logic.Exists{Vars: g.binders(), Body: g.Formula(depth - 1)}
	case 11:
		// Quantifier over a constant body.
		return logic.Forall{Vars: g.binders(), Body: logic.Bool{Val: g.r.Intn(2) == 0}}
	case 12:
		// A node of the same kind nested in itself.
		if g.r.Intn(2) == 0 {
			return logic.And{Fs: []logic.Formula{g.Formula(depth - 1), logic.And{Fs: g.Operands(depth - 1)}}}
		}
		return logic.Or{Fs: []logic.Formula{logic.Or{Fs: g.Operands(depth - 1)}, g.Formula(depth - 1)}}
	case 13:
		return g.prefix(depth)
	}
	return logic.Not{F: g.atom()}
}

// prefix returns a formula under two or three nested quantifiers of mixed
// kind, so existentials sit in the scope of several universals.
func (g *Gen) prefix(depth int) logic.Formula {
	f := g.Formula(depth - 1)
	for n := 2 + g.r.Intn(2); n > 0; n-- {
		vs := []string{g.pick(Vars)}
		if g.r.Intn(2) == 0 {
			f = logic.Forall{Vars: vs, Body: f}
		} else {
			f = logic.Exists{Vars: vs, Body: f}
		}
	}
	return f
}

// Operands returns a random And/Or operand list of at most the given depth:
// empty, single, ordinary, or wide with repeated and constant operands.
func (g *Gen) Operands(depth int) []logic.Formula {
	var n int
	switch g.r.Intn(6) {
	case 0:
		n = g.r.Intn(2) // And{} and And{x}
	case 1:
		n = 9 + g.r.Intn(max(1, g.opts.MaxWidth-8))
		if n > 12 {
			depth = min(depth, 2) // keep wide lists cheap
		}
	default:
		n = 2 + g.r.Intn(3)
	}
	n = min(n, g.opts.MaxWidth)
	fs := make([]logic.Formula, n)
	for k := range fs {
		switch {
		case k > 0 && g.r.Intn(3) == 0:
			fs[k] = fs[g.r.Intn(k)] // duplicate an earlier operand
		case g.r.Intn(8) == 0:
			fs[k] = logic.Bool{Val: g.r.Intn(2) == 0}
		default:
			fs[k] = g.Formula(depth - 1)
		}
	}
	return fs
}

// binders returns a quantifier's variables; sometimes none, sometimes a
// repeated name.
func (g *Gen) binders() []string {
	switch g.r.Intn(6) {
	case 0:
		return []string{}
	case 1:
		v := g.pick(Vars)
		return []string{v, v}
	}
	vs := []string{g.pick(Vars)}
	if g.r.Intn(2) == 0 {
		vs = append(vs, g.pick(Vars))
	}
	return vs
}

func (g *Gen) leaf() logic.Formula {
	switch g.r.Intn(10) {
	case 0:
		return logic.Bool{Val: g.r.Intn(2) == 0}
	case 1:
		if g.opts.Unknowns {
			return logic.Unknown{Name: g.pick([]string{"u", "v"})}
		}
	case 2:
		if g.opts.ArrayEq {
			return logic.AEq{L: g.Arr(2), R: g.Arr(2)}
		}
	}
	return g.atom()
}

func (g *Gen) atom() logic.Formula {
	ops := []logic.RelOp{logic.Eq, logic.Neq, logic.Lt, logic.Le, logic.Gt, logic.Ge}
	x := g.Term(2)
	y := g.Term(2)
	switch g.r.Intn(6) {
	case 0:
		y = x // reflexive atom
	case 1:
		x, y = g.lit(), g.lit() // ground literal comparison
	}
	return logic.Atom{Op: ops[g.r.Intn(len(ops))], X: x, Y: y}
}

// Term returns a random integer term of at most the given depth.
func (g *Gen) Term(depth int) logic.Term {
	if depth <= 0 || g.r.Intn(3) == 0 {
		if g.r.Intn(3) == 0 {
			return g.lit()
		}
		return logic.Var{Name: g.pick(Vars)}
	}
	switch g.r.Intn(9) {
	case 0:
		return logic.Add{X: g.Term(depth - 1), Y: g.Term(depth - 1)}
	case 1:
		// x+0, 0+x and literal sums.
		if g.r.Intn(2) == 0 {
			return logic.Add{X: g.Term(depth - 1), Y: logic.IntLit{Val: 0}}
		}
		return logic.Add{X: g.lit(), Y: g.Term(depth - 1)}
	case 2:
		return logic.Sub{X: g.Term(depth - 1), Y: g.Term(depth - 1)}
	case 3:
		return logic.Sub{X: g.Term(depth - 1), Y: g.lit()}
	case 4:
		// 0*x, 1*x, literal products and ordinary coefficients.
		return logic.Mul{C: int64(g.r.Intn(4)) - 1, X: g.Term(depth - 1)}
	case 5, 6:
		return logic.Select{A: g.Arr(depth - 1), Idx: g.Term(depth - 1)}
	case 7:
		args := make([]logic.Term, g.r.Intn(3))
		for k := range args {
			args[k] = g.Term(depth - 1)
		}
		return logic.Apply{F: g.pick([]string{"f", "next"}), Args: args}
	}
	return logic.Var{Name: g.pick(Vars)}
}

// Arr returns a random array term of at most the given depth.
func (g *Gen) Arr(depth int) logic.Arr {
	if depth <= 0 || g.r.Intn(2) == 0 {
		return logic.ArrVar{Name: g.pick(Arrays)}
	}
	return logic.Store{A: g.Arr(depth - 1), Idx: g.Term(depth - 1), Val: g.Term(depth - 1)}
}

// Subst returns a random substitution over the variable pools. Some entries
// name variables the generator binds, so quantifiers shadow them.
func (g *Gen) Subst() (map[string]logic.Term, map[string]logic.Arr) {
	sub := map[string]logic.Term{}
	for _, v := range Vars {
		if g.r.Intn(3) == 0 {
			sub[v] = g.Term(1)
		}
	}
	asub := map[string]logic.Arr{}
	for _, a := range Arrays {
		if g.r.Intn(4) == 0 {
			asub[a] = g.Arr(1)
		}
	}
	return sub, asub
}

func (g *Gen) lit() logic.Term { return logic.IntLit{Val: int64(g.r.Intn(5)) - 2} }

func (g *Gen) pick(xs []string) string { return xs[g.r.Intn(len(xs))] }
