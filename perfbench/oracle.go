package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/logic"
	"repro/internal/smt"
	"repro/internal/spec"
	"repro/internal/template"
	"repro/internal/vc"
)

// The known answers never come from a run of the verifier:
//
//   - every default-suite program is correct, so each Verify cell's known
//     answer is "provable"; a proof is a decided answer, "not proved" (the
//     Quick Sort (inner) GFP sortedness gap of EXPERIMENTS.md, timeouts,
//     errors) is undecided;
//   - a Precondition cell's known answer is its Task.ExpectPre list — empty
//     for every default-suite task, which leaves "a precondition exists",
//     since the paper's Tables 2 and 3 list one for each;
//   - the fleet corpus carries load.Item.WantProved, and each precondition
//     spec below carries a hand-derived maximally-weak set.
//
// A decided answer must also survive the recheck: VC(Prog, σ) on a fresh
// solver, and a concrete interp trace audit of every invariant.

// taskMethods mirrors the suite's method defaults: the task's own list, else
// GFP for precondition inference and all three algorithms for verification.
func taskMethods(t bench.Task) []core.Method {
	if len(t.Methods) > 0 {
		return t.Methods
	}
	if t.Kind == bench.Precondition {
		return []core.Method{core.GFP}
	}
	return core.Methods
}

// verdict is a cell's answer in comparable form.
type verdict struct {
	proved bool
	// sols are the solutions to recheck: the proof's σ, or one σ per
	// inferred precondition.
	sols []template.Solution
	// pres are the inferred preconditions (Precondition cells).
	pres []logic.Formula
	// text renders the answer canonically (verdict, sorted invariants or
	// preconditions), for the cell-by-cell warm-versus-cold comparison.
	text string
}

func verifyVerdict(p *spec.Problem, o core.Outcome) verdict {
	v := verdict{proved: o.Proved, text: "not proved"}
	if !o.Proved {
		return v
	}
	v.sols = []template.Solution{o.Solution}
	lines := make([]string, 0, len(o.Invariants))
	for cut, inv := range o.Invariants {
		lines = append(lines, cut+": "+inv.String())
	}
	sort.Strings(lines)
	v.text = "proved; " + strings.Join(lines, "; ")
	return v
}

func precondVerdictOf(pres []logic.Formula, sols []template.Solution) verdict {
	v := verdict{proved: len(pres) > 0, pres: pres, sols: sols, text: "no precondition"}
	if !v.proved {
		return v
	}
	lines := make([]string, len(pres))
	for i, p := range pres {
		lines[i] = p.String()
	}
	sort.Strings(lines)
	v.text = "preconditions; " + strings.Join(lines, "; ")
	return v
}

// decided reports whether a cell's answer equals its known answer.
func decided(t bench.Task, v verdict, s *smt.Solver) bool {
	if !v.proved {
		return false
	}
	// Each expected precondition must be covered by an inferred one at
	// least as weak.
	for _, want := range t.ExpectPre {
		covered := false
		for _, got := range v.pres {
			if s.Valid(logic.Imp(want, got)) {
				covered = true
				break
			}
		}
		if !covered {
			return false
		}
	}
	return true
}

// recheck verifies a proved answer independently of the run that produced
// it: every solution must make VC(Prog, σ) valid on a fresh solver, and no
// concrete execution from an input satisfying the entry condition may
// violate an invariant or an assertion. It returns nil for unproved answers.
func recheck(build func() *spec.Problem, v verdict, seed int64) error {
	if !v.proved {
		return nil
	}
	for i, sol := range v.sols {
		p := build()
		if ok, path := p.CheckAll(smt.NewSolver(smt.Options{}), sol); !ok {
			return fmt.Errorf("VC(Prog, σ) fails on path %s -> %s", path.From, path.To)
		}
		pre := p.FillTemplateAt(vc.Entry, sol)
		invs := map[string]logic.Formula{}
		for _, cut := range p.Prog.CutPoints() {
			invs[cut] = p.FillTemplateAt(cut, sol)
		}
		if err := audit(p.Prog, pre, invs, seed+int64(i)); err != nil {
			return err
		}
	}
	return nil
}

// auditTrials is the number of random inputs each audit executes.
const auditTrials = 40

// audit runs the program on seeded random inputs and checks, on every run
// whose input satisfies pre, that no assertion fails and every invariant
// holds at every visit of its cut-point.
func audit(prog *lang.Program, pre logic.Formula, invs map[string]logic.Formula, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < auditTrials; trial++ {
		env := randomInput(prog, rng, trial%2 == 1)
		if !env.EvalFormula(pre) {
			continue
		}
		res, err := interp.RunClean(prog, env, interp.Options{RecordCuts: true, Rand: rng, MaxSteps: 20000})
		if err != nil {
			return fmt.Errorf("trace audit: %w", err)
		}
		if res.AssumeFailed {
			continue
		}
		if res.AssertFailed != nil {
			return fmt.Errorf("trace audit: assertion %v fails on a run satisfying %v", res.AssertFailed, pre)
		}
		for cut, inv := range invs {
			if bad := interp.CheckInvariant(res, cut, inv); bad != nil {
				return fmt.Errorf("trace audit: invariant %v fails at %s (ints %v)", inv, cut, bad.Ints)
			}
		}
	}
	return nil
}

// randomInput draws small integer parameters and 12-cell arrays; sorted
// arrays are drawn on every other trial so order-sensitive entry conditions
// are exercised too.
func randomInput(prog *lang.Program, rng *rand.Rand, sorted bool) *logic.Env {
	env := logic.NewEnv(-4, 16)
	for _, x := range prog.IntParams {
		env.Ints[x] = int64(rng.Intn(9)) - 1
	}
	for _, a := range prog.ArrParams {
		cells := make([]int64, 12)
		for i := range cells {
			cells[i] = int64(rng.Intn(11)) - 5
		}
		if sorted {
			sort.Slice(cells, func(i, j int) bool { return cells[i] < cells[j] })
		}
		env.SetArr(a, cells)
	}
	return env
}

// --- fleet answers ---

// precondSpec is a fleet precondition request with its hand-derived
// maximally-weak precondition set.
type precondSpec struct {
	Name string
	Spec string
	Want []string
}

// precondSpecs are the session-class requests of fleet-mixed.
//
// GuardedInit: after zeroing A[0..n), the assertion covers A[0..m); it holds
// iff m <= n or the range is empty (m <= 0). n <= m alone fails (n=0, m=1).
//
// Countdown: i counts down from n to the first value <= 0; the assertion
// i = 0 holds iff n >= 0. n <= 0 fails (n=-1), and n >= 1 is stronger than
// n >= 0.
var precondSpecs = []precondSpec{
	{Name: "guarded-init/pre", Want: []string{"m <= 0", "m <= n"}, Spec: `
program GuardedInit(array A, n, m) {
  i := 0;
  while loop (i < n) {
    A[i] := 0;
    i := i + 1;
  }
  assert(forall k. (0 <= k && k < m) => A[k] = 0);
}
template entry: ?pre;
template loop: ?v0 && (forall k. ?v1 => A[k] = 0);
predicates pre: m <= n, n <= m, m <= 0;
predicates v0: m <= n, i <= n, 0 <= i;
predicates v1: 0 <= k, k < i, k < n, k < m;
`},
	{Name: "countdown/pre", Want: []string{"n >= 0"}, Spec: `
program Countdown(n) {
  i := n;
  while loop (i > 0) {
    i := i - 1;
  }
  assert(i = 0);
}
template entry: ?pre;
template loop: ?v0;
predicates pre: n >= 0, n <= 0, n >= 1;
predicates v0: i >= 0, i <= n, i <= 0;
`},
}

// canonicalFormulas parses each formula and renders it back, so answers and
// expectations compare independently of spacing and parenthesization.
func canonicalFormulas(fs []string) ([]string, error) {
	out := make([]string, len(fs))
	for i, s := range fs {
		f, err := lang.ParseFormula(s)
		if err != nil {
			return nil, fmt.Errorf("parse %q: %w", s, err)
		}
		out[i] = f.String()
	}
	sort.Strings(out)
	return out, nil
}

// recheckSpecAnswer rechecks a fleet answer against its spec source: the
// returned invariants (verify) are substituted for the templates and
// VC(Prog, σ) re-proved on a fresh solver, then trace-audited; returned
// preconditions are trace-audited (no assertion fails from an input that
// satisfies one).
func recheckSpecAnswer(src string, invs map[string]string, pres []string, seed int64) error {
	sf, err := lang.ParseSpecFile(src)
	if err != nil {
		return err
	}
	if pres != nil {
		for i, s := range pres {
			pre, err := lang.ParseFormula(s)
			if err != nil {
				return fmt.Errorf("parse precondition %q: %w", s, err)
			}
			if err := audit(sf.Program, pre, nil, seed+int64(i)); err != nil {
				return err
			}
		}
		return nil
	}
	p := &spec.Problem{Prog: sf.Program, Templates: map[string]logic.Formula{}, Q: template.Domain{}}
	concrete := map[string]logic.Formula{}
	for cut, t := range sf.Templates {
		if len(logic.Unknowns(t)) == 0 {
			p.Templates[cut] = t
			continue
		}
		s, ok := invs[cut]
		if !ok {
			return fmt.Errorf("no invariant returned for cut-point %s", cut)
		}
		f, err := lang.ParseFormula(s)
		if err != nil {
			return fmt.Errorf("parse invariant %q: %w", s, err)
		}
		p.Templates[cut] = f
		concrete[cut] = f
	}
	if ok, path := p.CheckAll(smt.NewSolver(smt.Options{}), template.Solution{}); !ok {
		return fmt.Errorf("VC(Prog, σ) fails on path %s -> %s", path.From, path.To)
	}
	return audit(sf.Program, p.TemplateAt(vc.Entry), concrete, seed)
}
