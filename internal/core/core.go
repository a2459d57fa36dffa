// Package core is the public façade of the verifier: it wires the SMT
// solver, the optimal-solutions engine, and the three fixed-point algorithms
// of Srivastava & Gulwani (PLDI 2009) behind one Verifier type.
//
// A verification task is a spec.Problem: a program, an invariant template
// per cut-point, and a predicate vocabulary per template unknown. Verify
// discovers an instantiation of the templates that makes every verification
// condition valid (an inductive invariant proving the program's assertions);
// InferPreconditions and InferPostconditions run the §6 extensions.
package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cbi"
	"repro/internal/fixpoint"
	"repro/internal/logic"
	"repro/internal/optimal"
	"repro/internal/precond"
	"repro/internal/smt"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/template"
	"repro/internal/vc"
)

// Method selects a fixed-point algorithm.
type Method int

// The three algorithms of the paper.
const (
	// LFP is the forward, least fixed-point iterative algorithm (§4.1).
	LFP Method = iota
	// GFP is the backward, greatest fixed-point iterative algorithm (§4.2).
	GFP
	// CFP is the constraint-based algorithm (§5).
	CFP
)

func (m Method) String() string {
	switch m {
	case LFP:
		return "LFP"
	case GFP:
		return "GFP"
	case CFP:
		return "CFP"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Methods lists all three algorithms in the paper's reporting order.
var Methods = []Method{LFP, GFP, CFP}

// Config tunes a Verifier. The zero value is usable.
type Config struct {
	// SMT configures the validity checker.
	SMT smt.Options
	// MaxNegDepth bounds OptimalNegativeSolutions' search (default 4).
	MaxNegDepth int
	// Optimal sets the optimal-solutions engine's internal parallelism and
	// its differential-test seam.
	Optimal optimal.Options
	// Fixpoint bounds the iterative algorithms.
	Fixpoint fixpoint.Options
	// CBI bounds the constraint-based algorithm.
	CBI cbi.Options
	// Stats, when non-nil, collects the Figure 4–9 measurements.
	Stats *stats.Collector
	// Cores, when non-nil, replaces the engine's private unsat-core store —
	// pass one store to several Verifiers (e.g. a serving pool) so cores
	// learned by any of them prune every sharer's lattice searches.
	Cores *optimal.CoreStore
	// Knowledge, when non-nil, is the on-disk knowledge base: validity and
	// consistency verdicts, theory lemmas, and unsat cores warm-load from it
	// and are written behind during solving, so a restarted process resumes
	// with everything its predecessor learned. The store must have been
	// opened with Params = SMT.StoreParams() (store.Open sidelines a store
	// written under different solver bounds).
	Knowledge *store.Store
}

// Verifier runs verification tasks. Not safe for concurrent use (the
// underlying SMT solver memoizes state).
type Verifier struct {
	cfg Config
	eng *optimal.Engine
}

// New returns a Verifier with the given configuration. Config.Fixpoint.Stop
// is the canonical cancellation hook: unless a layer's own Stop is set
// explicitly it is propagated into the SMT solver, the optimal-solutions
// engine, and the constraint-based algorithm, so one flag cancels every
// method.
func New(cfg Config) *Verifier {
	if cfg.SMT.Stop == nil {
		cfg.SMT.Stop = cfg.Fixpoint.Stop
	}
	if cfg.CBI.Stop == nil {
		// Without this a deadline-bounded CFP run kept grinding SAT models
		// after its caller gave up: only the SMT layer saw the flag, and it
		// is polled nowhere between models.
		cfg.CBI.Stop = cfg.Fixpoint.Stop
	}
	cfg.SMT.Store = cfg.Knowledge
	s := smt.NewSolver(cfg.SMT)
	s.SetStats(cfg.Stats)
	eng := optimal.New(s)
	if cfg.MaxNegDepth > 0 {
		eng.MaxDepth = cfg.MaxNegDepth
	}
	eng.Stats = cfg.Stats
	eng.Stop = cfg.Fixpoint.Stop
	eng.Opts = cfg.Optimal
	eng.ShareCores(cfg.Cores)
	eng.AttachKnowledge(cfg.Knowledge)
	cfg.Fixpoint.Stats = cfg.Stats
	cfg.CBI.Stats = cfg.Stats
	return &Verifier{cfg: cfg, eng: eng}
}

// Engine exposes the underlying optimal-solutions engine (for tests and the
// benchmark harness).
func (v *Verifier) Engine() *optimal.Engine { return v.eng }

// Outcome reports a verification run.
type Outcome struct {
	// Proved reports whether an invariant solution was found.
	Proved bool
	// Solution is the discovered solution (nil when !Proved).
	Solution template.Solution
	// Invariants maps each templated cut-point to its instantiated,
	// simplified invariant.
	Invariants map[string]logic.Formula
	// Method is the algorithm that ran.
	Method Method
	// Duration is the wall-clock time of the run.
	Duration time.Duration
	// Steps counts worklist iterations (iterative methods) or SAT models
	// examined (CFP).
	Steps int
	// Truncated reports that the search space was clipped (candidate cap,
	// MaxSteps with candidates pending, or MaxModels with SAT models left):
	// a !Proved outcome with Truncated set is "gave up", not "no invariant
	// exists in this template/predicate space".
	Truncated bool
	// Aborted reports that the run was cancelled via Fixpoint.Stop (deadline
	// or caller cancellation) before completing. A !Proved outcome with
	// Aborted set says nothing about the problem.
	Aborted bool
}

// Verify runs the selected algorithm on the problem.
func (v *Verifier) Verify(p *spec.Problem, m Method) (Outcome, error) {
	start := time.Now()
	out := Outcome{Method: m}
	switch m {
	case LFP:
		res, err := fixpoint.LeastFixedPoint(p, v.eng, v.cfg.Fixpoint)
		if err != nil {
			return out, err
		}
		out.Proved, out.Solution, out.Steps = res.Found(), res.Solution, res.Steps
		out.Truncated, out.Aborted = res.Truncated, res.Aborted
	case GFP:
		res, err := fixpoint.GreatestFixedPoint(p, v.eng, v.cfg.Fixpoint)
		if err != nil {
			return out, err
		}
		out.Proved, out.Solution, out.Steps = res.Found(), res.Solution, res.Steps
		out.Truncated, out.Aborted = res.Truncated, res.Aborted
	case CFP:
		res, err := cbi.Solve(p, v.eng, v.cfg.CBI)
		if err != nil {
			return out, err
		}
		out.Proved, out.Solution, out.Steps = res.Found(), res.Solution, res.Models
		out.Truncated, out.Aborted = res.Truncated, res.Aborted
	default:
		return out, fmt.Errorf("core: unknown method %v", m)
	}
	out.Duration = time.Since(start)
	if out.Proved {
		out.Invariants = instantiate(p, out.Solution)
	}
	return out, nil
}

// InferPreconditions runs §6 maximally-weak precondition inference; the
// problem's entry template must contain unknowns. The Enumeration reports
// whether the underlying exhaustive search was truncated or aborted (in
// which case the returned set may be incomplete).
func (v *Verifier) InferPreconditions(p *spec.Problem) ([]precond.Precondition, precond.Enumeration, error) {
	if len(logic.Unknowns(p.TemplateAt(vc.Entry))) == 0 {
		return nil, precond.Enumeration{}, fmt.Errorf("core: entry template has no unknowns; attach one to infer preconditions")
	}
	return precond.MaximallyWeak(p, v.eng, v.cfg.Fixpoint)
}

// InferPostconditions runs the dual maximally-strong postcondition
// inference; the problem's exit template must contain unknowns.
func (v *Verifier) InferPostconditions(p *spec.Problem) ([]precond.Postcondition, precond.Enumeration, error) {
	if len(logic.Unknowns(p.TemplateAt(vc.Exit))) == 0 {
		return nil, precond.Enumeration{}, fmt.Errorf("core: exit template has no unknowns; attach one to infer postconditions")
	}
	return precond.MaximallyStrong(p, v.eng, v.cfg.Fixpoint)
}

func instantiate(p *spec.Problem, sigma template.Solution) map[string]logic.Formula {
	out := map[string]logic.Formula{}
	for cut, t := range p.Templates {
		if len(logic.Unknowns(t)) == 0 {
			continue
		}
		out[cut] = logic.Simplify(sigma.Fill(t))
	}
	return out
}

// FormatOutcome renders an outcome for human consumption.
func FormatOutcome(o Outcome) string {
	if !o.Proved {
		verdict := "no invariant found"
		switch {
		case o.Aborted:
			verdict = "aborted (deadline/cancelled)"
		case o.Truncated:
			verdict = "no invariant found (search truncated)"
		}
		return fmt.Sprintf("%s: %s (%v, %d steps)", o.Method, verdict, o.Duration.Round(time.Millisecond), o.Steps)
	}
	s := fmt.Sprintf("%s: proved in %v (%d steps)\n", o.Method, o.Duration.Round(time.Millisecond), o.Steps)
	cuts := make([]string, 0, len(o.Invariants))
	for c := range o.Invariants {
		cuts = append(cuts, c)
	}
	sort.Strings(cuts)
	for _, c := range cuts {
		s += fmt.Sprintf("  %s: %s\n", c, o.Invariants[c])
	}
	return s
}
