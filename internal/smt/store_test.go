package smt

import (
	"testing"
	"time"

	"repro/internal/logic"
	"repro/internal/store"
)

func openStoreT(t *testing.T, dir string, opts Options) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{
		Params:        opts.StoreParams(),
		FlushInterval: 5 * time.Millisecond,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	return st
}

// storeProbeFormulas is a mix of valid and invalid quantifier-free and
// quantified formulas exercising both decision paths.
func storeProbeFormulas() []logic.Formula {
	x, y := logic.V("x"), logic.V("y")
	return []logic.Formula{
		logic.Implies{A: logic.LeF(x, y), B: logic.LeF(x, logic.Plus(y, logic.I(1)))},
		logic.Implies{A: logic.LeF(x, y), B: logic.LeF(y, x)},
		logic.Implies{
			A: logic.And{Fs: []logic.Formula{logic.LeF(x, logic.I(5)), logic.LeF(logic.I(5), x)}},
			B: logic.EqF(x, logic.I(5)),
		},
		logic.Implies{A: logic.EqF(x, logic.I(3)), B: logic.LeF(logic.Mul{C: 2, X: x}, logic.I(7))},
		logic.LeF(logic.Plus(x, y), logic.Plus(y, x)),
	}
}

// TestWarmStartVerdictsIdentical is the smt-layer warm-start contract: a
// solver attached to a reopened store answers previously decided formulas
// from it — zero from-scratch queries — with identical verdicts.
func TestWarmStartVerdictsIdentical(t *testing.T) {
	dir := t.TempDir()
	opts := Options{}

	st := openStoreT(t, dir, opts)
	cold := NewSolver(Options{Store: st})
	var want []bool
	for _, f := range storeProbeFormulas() {
		want = append(want, cold.Valid(f))
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if cold.NumQueries() == 0 {
		t.Fatal("cold solver decided nothing")
	}

	st2 := openStoreT(t, dir, opts)
	defer st2.Close()
	if st2.Stats().ColdStart {
		t.Fatal("reopen reported cold start")
	}
	warm := NewSolver(Options{Store: st2})
	for i, f := range storeProbeFormulas() {
		if got := warm.Valid(f); got != want[i] {
			t.Errorf("formula %d: warm verdict %v != cold %v", i, got, want[i])
		}
	}
	if n := warm.NumQueries(); n != 0 {
		t.Errorf("warm solver ran %d from-scratch queries, want 0", n)
	}
	if n := warm.NumStoreVerdictHits(); n != int64(len(want)) {
		t.Errorf("store verdict hits = %d, want %d", n, len(want))
	}
}

// TestStoreParamsMismatchStartsCold asserts that changed solver bounds
// sideline the persisted verdicts rather than replaying them.
func TestStoreParamsMismatchStartsCold(t *testing.T) {
	dir := t.TempDir()
	st := openStoreT(t, dir, Options{})
	s := NewSolver(Options{Store: st})
	s.Valid(storeProbeFormulas()[0])
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	changed := Options{InstRounds: 7}
	st2 := openStoreT(t, dir, changed)
	defer st2.Close()
	if !st2.Stats().ColdStart {
		t.Error("params change did not force a cold start")
	}
}

// TestWarmLemmaSeeding asserts that theory lemmas learned by a context group
// reach the store and seed an equivalent group in the next lifetime.
func TestWarmLemmaSeeding(t *testing.T) {
	dir := t.TempDir()
	opts := Options{}
	x, y, z := logic.V("x"), logic.V("y"), logic.V("z")
	// A skeleton whose probes force theory conflicts (transitivity lemmas).
	skel := logic.Implies{
		A: logic.And{Fs: []logic.Formula{logic.LeF(x, y), logic.LeF(y, z)}},
		B: logic.LeF(x, z),
	}
	probe := func(s *Solver) bool { return s.ContextFor(logic.Intern(skel)).Valid(skel) }

	st := openStoreT(t, dir, opts)
	cold := NewSolver(Options{Store: st})
	coldV := probe(cold)
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if st.Stats().Appended == 0 {
		t.Fatal("cold run persisted nothing")
	}

	st2 := openStoreT(t, dir, opts)
	defer st2.Close()
	warm := NewSolver(Options{Store: st2})
	if warmV := probe(warm); warmV != coldV {
		t.Errorf("warm verdict %v != cold %v", warmV, coldV)
	}
	if warm.NumWarmLemmas() == 0 && warm.NumStoreVerdictHits() == 0 {
		t.Error("warm run neither seeded lemmas nor hit persisted verdicts")
	}
}
