package lang_test

import (
	"testing"

	"repro/internal/lang"
	"repro/internal/logic"
	"repro/internal/spec"
	"repro/internal/template"
)

// The spec file is read from outside the process: vs3d parses every request
// body with it. Each fuzz target checks that no input panics; the formula
// target also checks that whatever parses survives a print-and-parse round
// trip. The seed corpus lives in testdata/fuzz/ (the quickstart spec and
// the benchmark programs, templates and predicates); `make fuzz-spec` runs
// each target for a short budget.

// FuzzParseSpecFile fuzzes a request body through exactly what the server
// runs on it before solving: ParseSpecFile, then Problem.Validate.
func FuzzParseSpecFile(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		sf, err := lang.ParseSpecFile(src)
		if err != nil {
			return
		}
		p := &spec.Problem{
			Prog:      sf.Program,
			Templates: sf.Templates,
			Q:         template.Domain(sf.Predicates),
		}
		_ = p.Validate()
	})
}

// FuzzParseFormula fuzzes the formula parser: a formula that parses must
// print to a source that parses back to the same structure. Formulas with a
// template unknown are exempt: an unknown prints as $v but parses as ?v, so
// its rendering is for people, not for the parser.
func FuzzParseFormula(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		g, err := lang.ParseFormula(src)
		if err != nil || len(logic.Unknowns(g)) > 0 {
			return
		}
		printed := g.String()
		again, err := lang.ParseFormula(printed)
		if err != nil {
			t.Fatalf("printed formula %q (from %q) does not parse: %v", printed, src, err)
		}
		if !logic.FormulaStructEq(g, again) {
			t.Fatalf("round trip changed the formula:\n src     %q\n printed %q\n reparsed %q", src, printed, again)
		}
	})
}
