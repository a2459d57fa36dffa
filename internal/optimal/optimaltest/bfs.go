// Package optimaltest is the differential tests' independent reference for
// the optimal-negative-solutions search: a plain bounded breadth-first
// lattice walk on exported API only. On a solver of its own it shares no
// memo, core store, context or knowledge store with the engine it checks.
package optimaltest

import (
	"sync/atomic"

	"repro/internal/logic"
	"repro/internal/smt"
	"repro/internal/template"
)

// NegativeSolutions returns the first maxSolutions minimal solutions of one
// unknown-connected group φ over q: at most maxDepth predicates in total,
// every per-unknown set of two or more predicates consistent, ordered as the
// engine orders them — by size, then lexicographically by item index, the
// items being φ's unknowns in first-occurrence order, each with its
// deduplicated predicates in domain order.
func NegativeSolutions(s *smt.Solver, phi logic.Formula, q template.Domain, maxDepth, maxSolutions int) []template.Solution {
	type item struct {
		u string
		p logic.Formula
	}
	var items []item
	empty, full := template.Solution{}, template.Solution{}
	for _, u := range logic.Unknowns(phi) {
		empty[u], full[u] = template.NewPredSet(), template.NewPredSet()
		seen := map[*logic.IFormula]bool{}
		for _, p := range q[u] {
			if n := logic.Intern(p); !seen[n] {
				seen[n] = true
				items = append(items, item{u, p})
				full[u] = full[u].Add(p)
			}
		}
	}
	fl := template.NewFiller(phi)
	valid := func(sigma template.Solution) bool { return s.Valid(fl.FillSolution(sigma)) }
	if !valid(full) {
		return nil
	}
	if valid(empty) {
		return []template.Solution{empty}
	}
	var sols []template.Solution
	subsumed := func(cand template.Solution) bool {
		for _, sol := range sols {
			below := true
			for u, ps := range sol {
				below = below && ps.SubsetOf(cand[u])
			}
			if below {
				return true
			}
		}
		return false
	}
	type node struct {
		sigma template.Solution
		last  int // index of the last item added
	}
	frontier := []node{{empty, -1}}
	for depth := 1; depth <= maxDepth && len(frontier) > 0; depth++ {
		var next []node
		for _, nd := range frontier {
			for i := nd.last + 1; i < len(items); i++ {
				cand := nd.sigma.Clone()
				ps := cand[items[i].u].Add(items[i].p)
				cand[items[i].u] = ps
				switch {
				case subsumed(cand):
				case ps.Len() > 1 && s.Valid(logic.Neg(ps.Formula())): // guard is "false"
				case valid(cand):
					sols = append(sols, cand)
				default:
					next = append(next, node{cand, i})
				}
			}
		}
		frontier = next
	}
	return sols[:min(len(sols), maxSolutions)]
}

// Checker is an optimal.Options.GroupSearch seam that runs the engine's
// search and the reference on S for every group, reports any difference in
// the solution lists (order included) through Errorf, and returns the
// engine's answer. With Replace set it returns the reference's answer and
// never runs the engine's search. Safe for concurrent use if Errorf is.
type Checker struct {
	S                      *smt.Solver
	MaxDepth, MaxSolutions int
	Replace                bool
	Errorf                 func(format string, args ...any)
	Groups                 atomic.Int64 // group searches answered
}

// Search is the GroupSearch seam.
func (c *Checker) Search(phi logic.Formula, q template.Domain, search func() []template.Solution) []template.Solution {
	c.Groups.Add(1)
	want := NegativeSolutions(c.S, phi, q, c.MaxDepth, c.MaxSolutions)
	if c.Replace {
		return want
	}
	got := search()
	if Keys(got) != Keys(want) {
		c.Errorf("group %v: engine %s, reference %s", phi, Keys(got), Keys(want))
	}
	return got
}

// Keys renders a solution list, in order, as one comparable string.
func Keys(sols []template.Solution) (keys string) {
	for _, s := range sols {
		keys += "{" + s.Key() + "} "
	}
	return keys
}
