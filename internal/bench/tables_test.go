package bench

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
)

func TestTable1Static(t *testing.T) {
	var b strings.Builder
	Table1(&b)
	out := b.String()
	for _, want := range []string{"Merge Sort", "forall y exists x", "A0[y] = A[x]"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable4Renders(t *testing.T) {
	if testing.Short() {
		t.Skip("table run skipped in -short mode")
	}
	// A tight per-run budget: this test checks the table renders and the
	// collector populates, not which cells succeed.
	c := stats.New()
	r := &Runner{Timeout: 8 * time.Second, Stats: c}
	var b strings.Builder
	Table4(&b, r)
	out := b.String()
	for _, want := range []string{"Consumer Producer", "Partition Array", "List Init", "LFP", "GFP", "CFP"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 4 missing %q:\n%s", want, out)
		}
	}
	// The runs must have populated the collector for Figures 4 and 6-9.
	if len(c.QueryDurations()) == 0 {
		t.Error("no SMT queries recorded")
	}
	var f strings.Builder
	Figure4(&f, c)
	if !strings.Contains(f.String(), "<=10ms") {
		t.Errorf("Figure 4 output: %s", f.String())
	}
	Figure6(&f, c)
	Figure7(&f, c)
	Figure8(&f, c)
	Figure9(&f, c)
}

func TestSuiteTableRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("suite run skipped in -short mode")
	}
	var b strings.Builder
	SuiteTable(&b, &Runner{Timeout: 30 * time.Second, Stats: stats.New()}, "quick", QuickSuite())
	out := b.String()
	for _, want := range []string{"Suite quick", "List Delete", "LFP", "GFP", "CFP", "queries", "fm-scratch"} {
		if !strings.Contains(out, want) {
			t.Errorf("suite table missing %q:\n%s", want, out)
		}
	}
	if rows := strings.Count(out, "List Delete"); rows != 3 {
		t.Errorf("suite table has %d List Delete rows, want one per method:\n%s", rows, out)
	}
}

func TestWithJunkPredicates(t *testing.T) {
	base := ArrayInit()
	juiced := WithJunkPredicates(ArrayInit, 7)()
	for u := range base.Q {
		if len(juiced.Q[u]) != len(base.Q[u])+7 {
			t.Errorf("unknown %s: %d preds, want %d", u, len(juiced.Q[u]), len(base.Q[u])+7)
		}
	}
	// The junked problem must still verify.
	r := &Runner{Timeout: 60 * time.Second}
	m := r.runOne(Task{Name: "junked", Build: WithJunkPredicates(ArrayInit, 5)}, core.GFP)
	if m.Err != nil || !m.Proved {
		t.Errorf("junked ArrayInit: err=%v proved=%v", m.Err, m.Proved)
	}
}

func TestJunkPredsDistinct(t *testing.T) {
	ps := junkPreds(40)
	seen := map[string]bool{}
	for _, p := range ps {
		if seen[p.String()] {
			t.Fatalf("duplicate junk predicate %v", p)
		}
		seen[p.String()] = true
	}
}

func TestRunnerTimeout(t *testing.T) {
	r := &Runner{Timeout: 1 * time.Millisecond}
	m := r.runOne(Task{Name: "slow", Build: MergeSortInnerSorted}, core.CFP)
	if m.Err == nil {
		t.Skip("finished within 1ms (!?)")
	}
	if !strings.Contains(m.Err.Error(), "timeout") {
		t.Errorf("err = %v", m.Err)
	}
}

func TestMeasurementFormatting(t *testing.T) {
	if got := fmtDur(Measurement{Proved: true, Duration: 1500 * time.Millisecond}); got != "1.50s" {
		t.Errorf("fmtDur proved = %q", got)
	}
	if got := fmtDur(Measurement{Proved: false}); got != "fail" {
		t.Errorf("fmtDur fail = %q", got)
	}
	if got := fmtDur(Measurement{Err: errTimeout{}}); got != "timeout" {
		t.Errorf("fmtDur timeout = %q", got)
	}
}

type errTimeout struct{}

func (errTimeout) Error() string { return "timeout" }

func TestTaskListsComplete(t *testing.T) {
	if got := len(ArrayListTasks()); got != 5 {
		t.Errorf("Table 4 has %d tasks, want 5", got)
	}
	if got := len(SortednessTasks()); got != 6 {
		t.Errorf("sortedness has %d tasks, want 6", got)
	}
	if got := len(PreservationTasks()); got != 6 {
		t.Errorf("preservation has %d tasks, want 6", got)
	}
	if got := len(WorstCaseTasks()); got != 4 {
		t.Errorf("worst-case has %d tasks, want 4", got)
	}
	if got := len(FunctionalTasks()); got != 4 {
		t.Errorf("functional has %d tasks, want 4", got)
	}
	// Every task must build a problem that validates.
	all := append(append(append(append(ArrayListTasks(), SortednessTasks()...),
		PreservationTasks()...), WorstCaseTasks()...), FunctionalTasks()...)
	for _, task := range all {
		p := task.Build()
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", task.Name, err)
		}
	}
}
