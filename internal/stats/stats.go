// Package stats collects the runtime statistics reported in Figures 4–9 of
// the paper: SMT query latencies, sizes of optimal solutions, iterative
// candidate counts, and SAT formula sizes. A single Collector can be shared
// across the whole pipeline; all methods are safe for concurrent use.
package stats

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Collector accumulates statistics across a verification run.
type Collector struct {
	mu sync.Mutex

	queryDurations []time.Duration // Figure 4: one entry per SMT validity query
	negSolSizes    []int           // Figure 6: #predicates per OptimalNegativeSolutions solution
	optSolCounts   []int           // Figure 7: #solutions per OptimalSolutions call
	candidates     []int           // Figure 8: candidate-set size per iterative step
	satClauses     []int           // Figure 9: #clauses per CFP SAT formula
	satVars        []int           // Figure 9 companion: #variables per CFP SAT formula
	coreSizes      []int           // #predicates per unsat core extracted by consistency probes
	coreEvictions  int             // cores evicted from the engine-global store to admit newer ones
	fmCapHits      int             // Fourier–Motzkin runs that hit the derived-constraint cap
	storeHits      int             // lookups answered from the on-disk knowledge store
	storeMisses    int             // knowledge-store lookups that found nothing
}

// New returns an empty collector.
func New() *Collector { return &Collector{} }

// RecordQuery records the latency of one SMT validity query (Figure 4).
func (c *Collector) RecordQuery(d time.Duration) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.queryDurations = append(c.queryDurations, d)
	c.mu.Unlock()
}

// RecordNegSolutionSize records the number of predicates in one solution
// returned by OptimalNegativeSolutions (Figure 6).
func (c *Collector) RecordNegSolutionSize(n int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.negSolSizes = append(c.negSolSizes, n)
	c.mu.Unlock()
}

// RecordOptSolutionCount records the number of optimal solutions returned by
// one OptimalSolutions call (Figure 7).
func (c *Collector) RecordOptSolutionCount(n int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.optSolCounts = append(c.optSolCounts, n)
	c.mu.Unlock()
}

// RecordCandidates records the size of the candidate set at one step of an
// iterative fixed-point run (Figure 8).
func (c *Collector) RecordCandidates(n int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.candidates = append(c.candidates, n)
	c.mu.Unlock()
}

// RecordSATSize records the clause and variable counts of one ψ_Prog SAT
// instance built by the constraint-based algorithm (Figure 9).
func (c *Collector) RecordSATSize(clauses, vars int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.satClauses = append(c.satClauses, clauses)
	c.satVars = append(c.satVars, vars)
	c.mu.Unlock()
}

// RecordCoreSize records the number of predicates in one unsat core
// extracted from a failed consistency probe.
func (c *Collector) RecordCoreSize(n int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.coreSizes = append(c.coreSizes, n)
	c.mu.Unlock()
}

// RecordCoreEviction records that one stored core was evicted from the
// engine-global core store to make room for a newer one.
func (c *Collector) RecordCoreEviction() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.coreEvictions++
	c.mu.Unlock()
}

// RecordFMCapHit records that one Fourier–Motzkin elimination hit the
// derived-constraint cap and returned a conservative (Truncated) answer
// instead of a decision.
func (c *Collector) RecordFMCapHit() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.fmCapHits++
	c.mu.Unlock()
}

// RecordStoreLookup records one lookup against the on-disk knowledge store
// (a verdict, consistency, lemma-seed, or outcome probe) and whether it hit.
func (c *Collector) RecordStoreLookup(hit bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if hit {
		c.storeHits++
	} else {
		c.storeMisses++
	}
	c.mu.Unlock()
}

// Snapshot is a fixed-size, mergeable summary of a Collector: every field is
// a count, so snapshots can be added (fleet aggregation). The latency
// histogram uses the Figure 4 buckets in DurationHistogram order.
type Snapshot struct {
	Queries        int    `json:"smt_queries"`
	QueryBuckets   [5]int `json:"smt_query_latency_buckets"`
	NegSolutions   int    `json:"neg_solutions"`
	OptCalls       int    `json:"optimal_calls"`
	CandidateSteps int    `json:"candidate_steps"`
	SATFormulas    int    `json:"sat_formulas"`
	UnsatCores     int    `json:"unsat_cores"`
	CoreEvictions  int    `json:"core_evictions"`
	FMCapHits      int    `json:"fm_cap_hits"`
	StoreHits      int    `json:"store_hits"`
	StoreMisses    int    `json:"store_misses"`
}

// QueryBucketLabels labels Snapshot.QueryBuckets, matching DurationHistogram.
var QueryBucketLabels = [5]string{"<=1ms", "<=10ms", "<=100ms", "<=1s", ">1s"}

// Snapshot summarizes everything recorded so far.
func (c *Collector) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.snapshotLocked()
}

// Take summarizes everything recorded since the collector was created or
// last taken, and clears it: consecutive Takes partition the records, so
// their sum equals one Snapshot over the same records. A long-lived
// collector drained by Take holds only what was recorded since the last
// call.
func (c *Collector) Take() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.snapshotLocked()
	c.queryDurations, c.negSolSizes, c.optSolCounts, c.candidates = nil, nil, nil, nil
	c.satClauses, c.satVars, c.coreSizes = nil, nil, nil
	c.coreEvictions, c.fmCapHits, c.storeHits, c.storeMisses = 0, 0, 0, 0
	return s
}

func (c *Collector) snapshotLocked() Snapshot {
	s := Snapshot{
		Queries:        len(c.queryDurations),
		NegSolutions:   len(c.negSolSizes),
		OptCalls:       len(c.optSolCounts),
		CandidateSteps: len(c.candidates),
		SATFormulas:    len(c.satClauses),
		UnsatCores:     len(c.coreSizes),
		CoreEvictions:  c.coreEvictions,
		FMCapHits:      c.fmCapHits,
		StoreHits:      c.storeHits,
		StoreMisses:    c.storeMisses,
	}
	for i, b := range DurationHistogram(c.queryDurations) {
		s.QueryBuckets[i] = b.Count
	}
	return s
}

// Add returns the field-wise sum of two snapshots.
func (s Snapshot) Add(o Snapshot) Snapshot {
	s.Queries += o.Queries
	for i := range s.QueryBuckets {
		s.QueryBuckets[i] += o.QueryBuckets[i]
	}
	s.NegSolutions += o.NegSolutions
	s.OptCalls += o.OptCalls
	s.CandidateSteps += o.CandidateSteps
	s.SATFormulas += o.SATFormulas
	s.UnsatCores += o.UnsatCores
	s.CoreEvictions += o.CoreEvictions
	s.FMCapHits += o.FMCapHits
	s.StoreHits += o.StoreHits
	s.StoreMisses += o.StoreMisses
	return s
}

// QueryDurations returns a copy of the recorded SMT query latencies.
func (c *Collector) QueryDurations() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.queryDurations...)
}

// NegSolutionSizes returns a copy of the recorded per-solution predicate counts.
func (c *Collector) NegSolutionSizes() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int(nil), c.negSolSizes...)
}

// OptSolutionCounts returns a copy of the recorded per-call solution counts.
func (c *Collector) OptSolutionCounts() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int(nil), c.optSolCounts...)
}

// Candidates returns a copy of the recorded candidate-set sizes.
func (c *Collector) Candidates() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int(nil), c.candidates...)
}

// SATSizes returns copies of the recorded clause and variable counts.
func (c *Collector) SATSizes() (clauses, vars []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int(nil), c.satClauses...), append([]int(nil), c.satVars...)
}

// Histogram buckets integer samples and returns bucket→count, with bucket
// upper bounds chosen from the supplied cut points (last bucket is open).
func Histogram(samples []int, cuts []int) map[string]int {
	out := map[string]int{}
	for _, s := range samples {
		placed := false
		for _, c := range cuts {
			if s <= c {
				out[fmt.Sprintf("<=%d", c)]++
				placed = true
				break
			}
		}
		if !placed {
			out[fmt.Sprintf(">%d", cuts[len(cuts)-1])]++
		}
	}
	return out
}

// DurationHistogram buckets query latencies by the paper's Figure 4 cuts
// (1ms, 10ms, 100ms, 1s, >1s) and returns labeled counts in display order.
func DurationHistogram(ds []time.Duration) []struct {
	Label string
	Count int
} {
	cuts := []struct {
		label string
		max   time.Duration
	}{
		{"<=1ms", time.Millisecond},
		{"<=10ms", 10 * time.Millisecond},
		{"<=100ms", 100 * time.Millisecond},
		{"<=1s", time.Second},
	}
	counts := make([]int, len(cuts)+1)
	for _, d := range ds {
		placed := false
		for i, c := range cuts {
			if d <= c.max {
				counts[i]++
				placed = true
				break
			}
		}
		if !placed {
			counts[len(cuts)]++
		}
	}
	out := make([]struct {
		Label string
		Count int
	}, 0, len(cuts)+1)
	for i, c := range cuts {
		out = append(out, struct {
			Label string
			Count int
		}{c.label, counts[i]})
	}
	out = append(out, struct {
		Label string
		Count int
	}{">1s", counts[len(cuts)]})
	return out
}

// Median returns the median of the samples (0 for an empty slice).
func Median(samples []int) int {
	if len(samples) == 0 {
		return 0
	}
	s := append([]int(nil), samples...)
	sort.Ints(s)
	return s[len(s)/2]
}

// Max returns the maximum of the samples (0 for an empty slice).
func Max(samples []int) int {
	m := 0
	for _, s := range samples {
		if s > m {
			m = s
		}
	}
	return m
}

// WriteSummary prints a human-readable digest of everything collected.
func (c *Collector) WriteSummary(w io.Writer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fmt.Fprintf(w, "SMT queries: %d\n", len(c.queryDurations))
	for _, b := range DurationHistogram(c.queryDurations) {
		fmt.Fprintf(w, "  %-8s %d\n", b.Label, b.Count)
	}
	fmt.Fprintf(w, "OptimalNegativeSolutions solution sizes: median=%d max=%d over %d solutions\n",
		Median(c.negSolSizes), Max(c.negSolSizes), len(c.negSolSizes))
	fmt.Fprintf(w, "OptimalSolutions solution counts: median=%d max=%d over %d calls\n",
		Median(c.optSolCounts), Max(c.optSolCounts), len(c.optSolCounts))
	fmt.Fprintf(w, "Iterative candidate sizes: median=%d max=%d over %d steps\n",
		Median(c.candidates), Max(c.candidates), len(c.candidates))
	fmt.Fprintf(w, "CFP SAT sizes: median clauses=%d max clauses=%d over %d formulas\n",
		Median(c.satClauses), Max(c.satClauses), len(c.satClauses))
	fmt.Fprintf(w, "Unsat core sizes: median=%d max=%d over %d cores (%d evicted)\n",
		Median(c.coreSizes), Max(c.coreSizes), len(c.coreSizes), c.coreEvictions)
	fmt.Fprintf(w, "Fourier-Motzkin cap hits (conservative answers): %d\n", c.fmCapHits)
}
