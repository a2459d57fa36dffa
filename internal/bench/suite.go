package bench

import (
	"fmt"
	"io"
)

// DefaultSuite returns the fast representative benchmark subset (the same
// tasks the always-on search tests run): one sortedness, one preservation,
// two functional-correctness preconditions, one worst-case bound, the two
// fast list tasks, and two general-LIA tasks. It is the suite behind
// `benchtab -suite default` and `make profile`, sized to finish in minutes
// rather than the tens of minutes the full Table 6 sweep takes.
func DefaultSuite() []Task {
	return []Task{
		SortednessTasks()[4],   // quick sort (inner)
		PreservationTasks()[4], // insertion sort
		FunctionalTasks()[0],   // partial init precondition
		FunctionalTasks()[1],   // init synthesis precondition
		WorstCaseTasks()[2],    // quick sort (inner) bound
		ArrayListTasks()[3],    // list delete
		ArrayListTasks()[4],    // list insert
		LIATasks()[0],          // scaled init (general-LIA invariant)
		LIATasks()[1],          // double stride (general-LIA invariant)
	}
}

// QuickSuite returns the one-task sanity suite behind `make bench-quick`:
// List Delete runs all three methods, giving one fast cell per algorithm.
func QuickSuite() []Task {
	return []Task{ArrayListTasks()[3]}
}

// SuiteTable runs a task list and prints one row per (task, method) cell:
// its time (or failure mode, as the paper's tables render it), its SMT
// validity queries and persistent-context probes, and its Fourier–Motzkin
// eliminations.
func SuiteTable(w io.Writer, r *Runner, name string, tasks []Task) {
	fmt.Fprintf(w, "Suite %s: time and work per (task, method) cell\n", name)
	fmt.Fprintf(w, "  %-22s %-14s %-5s %-8s %8s %8s %10s %10s\n",
		"Benchmark", "Property", "Alg", "time", "queries", "probes", "fm-scratch", "fm-incr")
	for ti, ms := range r.RunAll(tasks) {
		for _, m := range ms {
			fmt.Fprintf(w, "  %-22s %-14s %-5s %-8s %8d %8d %10d %10d\n",
				tasks[ti].Name, tasks[ti].Property, m.Method, fmtDur(m),
				m.Queries, m.AssumptionProbes, m.FMScratch, m.FMIncremental)
		}
	}
}
