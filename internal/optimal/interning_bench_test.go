package optimal

import (
	"testing"

	"repro/internal/logic"
	"repro/internal/template"
)

// benchPhiDomain is the Example 4 instance: a negative unknown under a
// quantifier with a 12-predicate vocabulary — a representative lattice
// search whose inner loop exercises the compiled filler, the map solver's
// blocking clauses, and the interned validity cache.
func benchPhiDomain() (logic.Formula, template.Domain) {
	phi := logic.Imp(
		logic.EqF(logic.V("i"), logic.I(0)),
		logic.All([]string{"j"}, logic.Imp(unk("h"),
			logic.EqF(logic.Sel(logic.AV("A"), logic.V("j")), logic.I(0)))))
	q := template.Domain{"h": qjTerms("j", []logic.Term{logic.I(0), logic.V("i"), logic.V("n")})}
	return phi, q
}

// BenchmarkNegativeSolutionsColdCache measures the full lattice search with
// a cold solver cache per iteration (dominated by real SMT decisions).
func BenchmarkNegativeSolutionsColdCache(b *testing.B) {
	phi, q := benchPhiDomain()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := newEngine()
		if sols := e.OptimalNegativeSolutions(phi, q); len(sols) == 0 {
			b.Fatal("no solutions")
		}
	}
}

// BenchmarkNegativeSolutionsWarmCache measures the search with a shared
// engine: every validity verdict is already memoized, so the per-op time is
// the pure search overhead — map-solver proposals, candidate construction,
// compiled fills, and cache-hit lookups. This is the path the fixed-point
// algorithms hit when many paths share verification conditions.
func BenchmarkNegativeSolutionsWarmCache(b *testing.B) {
	phi, q := benchPhiDomain()
	e := newEngine()
	e.OptimalNegativeSolutions(phi, q) // warm the caches
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sols := e.OptimalNegativeSolutions(phi, q); len(sols) == 0 {
			b.Fatal("no solutions")
		}
	}
}

// BenchmarkEngineFillSolution measures one candidate instantiation through
// the engine's compiled filler cache (the innermost search operation).
func BenchmarkEngineFillSolution(b *testing.B) {
	phi, q := benchPhiDomain()
	e := newEngine()
	sigma := template.Solution{"h": template.NewPredSet(q["h"][:2]...)}
	fl := e.Filler(phi)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fl.FillSolution(sigma)
	}
}
