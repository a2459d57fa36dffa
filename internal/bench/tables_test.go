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

// TestTable4Renders checks the Table 4 renderer on a fixed measurement set
// that produces every cell string fmtDur can print, so the test needs no
// solve. The real runs behind Figures 4 and 6–9 are TestSuiteTableRenders'.
func TestTable4Renders(t *testing.T) {
	cells := []struct {
		m    Measurement
		want string
	}{
		{Measurement{Proved: true, Duration: 1500 * time.Millisecond}, "1.50s"},
		{Measurement{Proved: true, Truncated: true, Duration: 50 * time.Millisecond}, "0.05s*"},
		{Measurement{}, "fail"},
		{Measurement{Truncated: true}, "fail*"},
		{Measurement{Aborted: true}, "aborted"},
		{Measurement{Err: errTimeout{}}, "timeout"},
	}
	tasks := ArrayListTasks()
	results := make([][]Measurement, len(tasks))
	want := make([]map[core.Method]string, len(tasks))
	k := 0
	for ti, task := range tasks {
		want[ti] = map[core.Method]string{}
		for _, method := range task.methods() {
			c := cells[k%len(cells)]
			k++
			c.m.Task, c.m.Method = task.Name, method
			results[ti] = append(results[ti], c.m)
			want[ti][method] = c.want
		}
	}
	if k < len(cells) {
		t.Fatalf("Table 4 has %d cells, fewer than the %d cell strings under test", k, len(cells))
	}
	var b strings.Builder
	renderTable4(&b, tasks, results)
	out := b.String()
	for _, wantStr := range []string{"Consumer Producer", "Partition Array", "List Init", "LFP", "GFP", "CFP"} {
		if !strings.Contains(out, wantStr) {
			t.Errorf("Table 4 missing %q:\n%s", wantStr, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2+len(tasks) {
		t.Fatalf("Table 4 has %d lines, want a title, a header and %d rows:\n%s", len(lines), len(tasks), out)
	}
	for ti, task := range tasks {
		row := lines[2+ti]
		if !strings.HasPrefix(row, "  "+task.Name) {
			t.Errorf("row %d is %q, want task %s", ti, row, task.Name)
			continue
		}
		got := strings.Fields(row[2+len(task.Name):])
		wantRow := []string{want[ti][core.LFP], want[ti][core.GFP], want[ti][core.CFP]}
		if strings.Join(got, " ") != strings.Join(wantRow, " ") {
			t.Errorf("%s cells %v, want %v (LFP GFP CFP)", task.Name, got, wantRow)
		}
	}
}

// TestSuiteTableRenders runs the quick suite (List Delete under LFP, GFP
// and CFP) and renders its table, then Figures 4 and 6–9 from the
// collector those runs filled.
func TestSuiteTableRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("suite run skipped in -short mode")
	}
	c := stats.New()
	var b strings.Builder
	SuiteTable(&b, &Runner{Timeout: 30 * time.Second, Stats: c}, "quick", QuickSuite())
	out := b.String()
	for _, want := range []string{"Suite quick", "List Delete", "LFP", "GFP", "CFP", "queries", "fm-scratch"} {
		if !strings.Contains(out, want) {
			t.Errorf("suite table missing %q:\n%s", want, out)
		}
	}
	if rows := strings.Count(out, "List Delete"); rows != 3 {
		t.Errorf("suite table has %d List Delete rows, want one per method:\n%s", rows, out)
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
