package bench

import (
	"testing"

	"repro/internal/core"
	"repro/internal/optimal/optimaltest"
	"repro/internal/smt"
	"repro/internal/spec"
	"repro/internal/store"
)

// exampleCells lists every problem the examples/ programs exercise, with the
// method choices the examples themselves make (core.Methods == nil means
// precondition inference).
var exampleCells = []struct {
	name    string
	build   func() *spec.Problem
	methods []core.Method
}{
	{"ArrayInit (quickstart)", ArrayInit, core.Methods},
	{"Quick Sort (inner) sortedness", QuickSortInnerSorted, []core.Method{core.LFP}},
	{"Quick Sort (inner) preservation", QuickSortInnerPreserves, []core.Method{core.LFP, core.CFP}},
	{"Bubble Sort (flag) sortedness", BubbleSortFlagSorted, []core.Method{core.GFP}},
	{"Bubble Sort (flag) preservation", BubbleSortFlagPreserves, core.Methods},
	{"Partial Init precondition", PartialInit, nil},
	{"Init Synthesis precondition", InitSynthesis, nil},
	{"Quick Sort (inner) worst case", QuickSortInnerWorstCase, nil},
}

// runCell runs one examples/ cell on v: every method the example uses, or
// precondition inference.
func runCell(t *testing.T, v *core.Verifier, build func() *spec.Problem, methods []core.Method) {
	t.Helper()
	if methods == nil {
		if _, _, err := v.InferPreconditions(build()); err != nil {
			t.Fatal(err)
		}
		return
	}
	for _, m := range methods {
		if _, err := v.Verify(build(), m); err != nil {
			t.Fatal(err)
		}
	}
}

// crossCheck returns a GroupSearch seam comparing every group search of the
// run with the independent BFS reference (optimaltest) on a fresh solver.
func crossCheck(t *testing.T) *optimaltest.Checker {
	return &optimaltest.Checker{S: smt.NewSolver(smt.Options{}), MaxDepth: 4, MaxSolutions: 64, Errorf: t.Errorf}
}

// TestMapVsBFSExamples runs every examples/ problem with the GroupSearch
// seam cross-checking, so every OptimalNegativeSolutions group search
// performed anywhere in the run (fixpoint repairs, ψ_Prog encoding,
// precondition enumeration) must return the solution list, order included,
// that the independent BFS reference computes on a solver of its own.
func TestMapVsBFSExamples(t *testing.T) {
	if testing.Short() {
		t.Skip("examples differential sweep skipped in -short mode (run via make test-differential)")
	}
	for _, cell := range exampleCells {
		cell := cell
		t.Run(cell.name, func(t *testing.T) {
			cc := crossCheck(t)
			cfg := core.Config{}
			cfg.Optimal.GroupSearch = cc.Search
			runCell(t, core.New(cfg), cell.build, cell.methods)
			if cc.Groups.Load() == 0 {
				t.Error("GroupSearch seam never fired; differential sweep vacuous")
			}
			t.Logf("%d group searches cross-checked", cc.Groups.Load())
		})
	}
}

// TestMapVsBFSWarmCores cross-checks the map search under warm-loaded
// cores: each examples/ cell is solved once with a fresh knowledge store
// attached, the store is closed and reopened, and a fresh engine on the
// reopened store — whose persisted portable cores are promoted into its
// searches — must agree with the independent reference on every group
// search.
func TestMapVsBFSWarmCores(t *testing.T) {
	if testing.Short() {
		t.Skip("warm-core differential sweep skipped in -short mode (run via make test-differential)")
	}
	var warmCores int64
	for _, cell := range exampleCells {
		cell := cell
		t.Run(cell.name, func(t *testing.T) {
			dir := t.TempDir()
			lifetime := func(cc *optimaltest.Checker) *core.Verifier {
				cfg := core.Config{}
				st, err := store.Open(dir, store.Options{Params: cfg.SMT.StoreParams()})
				if err != nil {
					t.Fatal(err)
				}
				defer func() {
					if err := st.Close(); err != nil {
						t.Fatal(err)
					}
				}()
				cfg.Knowledge = st
				if cc != nil {
					cfg.Optimal.GroupSearch = cc.Search
				}
				v := core.New(cfg)
				runCell(t, v, cell.build, cell.methods)
				return v
			}
			lifetime(nil)
			cc := crossCheck(t)
			warm := lifetime(cc)
			if cc.Groups.Load() == 0 {
				t.Error("GroupSearch seam never fired; differential sweep vacuous")
			}
			warmCores += warm.Engine().NumWarmCores()
			t.Logf("%d group searches cross-checked, %d warm cores promoted", cc.Groups.Load(), warm.Engine().NumWarmCores())
		})
	}
	if warmCores == 0 {
		t.Error("no persisted core was promoted in any cell; warm arm vacuous")
	}
}
