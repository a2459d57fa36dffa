package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/template"
)

var unitName = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestMetricRegistry checks every metric name and unit against the
// benchmark contract, and BENCHMARK.json against the registry.
func TestMetricRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %v", d.Name, metricName)
		}
		if !unitName.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q does not match %v", d.Name, d.Unit, unitName)
		}
		if seen[d.Name] {
			t.Errorf("metric %s defined twice", d.Name)
		}
		seen[d.Name] = true
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bj.Workloads), len(workloads))
	}
	for _, wl := range bj.Workloads {
		if workloads[wl.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", wl.Name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, registry %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, registry %+v", i, m, d)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, registry %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, registry %+v", i, m, d)
		}
	}
}

// TestEveryMetricPrintedWithUnit runs the reporting path on a stub workload
// and checks that each metric of the mode appears by name with its unit,
// both as a report line and in the final JSON line.
func TestEveryMetricPrintedWithUnit(t *testing.T) {
	workloads["stub"] = func(o options, w io.Writer) (outcome, error) {
		m := metricSet{}
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			m[d.Name] = 1.5
		}
		return outcome{metrics: m, attempted: 1}, nil
	}
	defer delete(workloads, "stub")
	for _, traced := range []bool{false, true} {
		var buf bytes.Buffer
		if err := run(options{workload: "stub", seconds: 1, trace: traced, out: t.TempDir()}, &buf); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line is not the result: %v", err)
		}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("trace=%v: %d metrics in the result, want %d", traced, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			if !strings.Contains(buf.String(), "metric "+d.Name+" = 1.5 "+d.Unit) {
				t.Errorf("trace=%v: %s not printed with unit %s", traced, d.Name, d.Unit)
			}
			if got := res.Metrics[d.Name]; got.Unit != d.Unit || got.Value != 1.5 {
				t.Errorf("trace=%v: result %s = %+v", traced, d.Name, got)
			}
		}
	}
}

// exactCounters are the per-layer counters that repeat exactly between two
// runs of the same cells. The counters fed by the context-lane pool and the
// parallel workers (lia.fm_incremental, smt.probes, smt.cache_hits,
// smt.contexts, smt.lemma_reuse, smt.shared_lemmas, optimal.core_pruned and
// the store's hit and append counters) drift with scheduling and are not
// compared.
var exactCounters = []string{
	"smt.queries", "lia.fm_scratch", "fixpoint.steps", "fixpoint.candidates", "cbi.models",
	"optimal.calls", "optimal.solutions", "optimal.neg_solutions", "optimal.neg_preds",
	"sat.clauses", "sat.vars",
}

// shortCells are the default-suite cells the determinism test repeats: the
// fast ones, covering LFP, GFP, CFP and precondition inference.
func shortCells(t *testing.T, seed int64) []*cell {
	cells, err := paperSetup(seed)
	if err != nil {
		t.Fatal(err)
	}
	var out []*cell
	for _, c := range cells {
		switch c.task.Name {
		case "List Delete", "List Insert", "Partial Init", "Init Synthesis", "Double Stride":
			out = append(out, c)
		}
	}
	return out
}

// TestSameSeedSameRun runs the short cell set twice with one seed and
// checks identical order, answers and exactly repeating counters; the fleet
// request sequence must repeat too, and another seed must change both.
func TestSameSeedSameRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs verifier cells")
	}
	a, b := shortCells(t, 7), shortCells(t, 7)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("short cell sets: %d and %d cells", len(a), len(b))
	}
	for i := range a {
		if a[i].idx != b[i].idx {
			t.Fatalf("cell order differs at %d: %v vs %v", i, a[i], b[i])
		}
	}
	ra := runPass(a, nil, newTracer(), "a").runs
	rb := runPass(b, nil, newTracer(), "b").runs
	for i := range ra {
		if ra[i].v.text != rb[i].v.text {
			t.Errorf("%v: answers differ: %q vs %q", ra[i].cell, ra[i].v.text, rb[i].v.text)
		}
		ma, mb := metricSet{}, metricSet{}
		addCell(ma, ra[i])
		addCell(mb, rb[i])
		for _, name := range exactCounters {
			if ma[name] != mb[name] {
				t.Errorf("%v: %s = %v then %v", ra[i].cell, name, ma[name], mb[name])
			}
		}
	}
	other := shortCells(t, 8)
	if reflect.DeepEqual(cellOrder(a), cellOrder(other)) {
		t.Error("seeds 7 and 8 give the same cell order")
	}

	s1 := fleetSequence(7, fleetClients, perClientPass, 21, len(precondSpecs))
	s2 := fleetSequence(7, fleetClients, perClientPass, 21, len(precondSpecs))
	if !reflect.DeepEqual(s1, s2) {
		t.Error("one seed gave two fleet request sequences")
	}
	if reflect.DeepEqual(s1, fleetSequence(8, fleetClients, perClientPass, 21, len(precondSpecs))) {
		t.Error("seeds 7 and 8 give the same fleet request sequence")
	}
	for _, seq := range s1 {
		sessions := 0
		for _, r := range seq {
			if r.session {
				sessions++
			}
		}
		if sessions != perClientPass*sessionPercent/100 {
			t.Errorf("%d session requests per client pass, want %d", sessions, perClientPass*sessionPercent/100)
		}
	}
}

func cellOrder(cells []*cell) []int {
	out := make([]int, len(cells))
	for i, c := range cells {
		out[i] = c.idx
	}
	return out
}

// TestFleetSameSeedSameAnswers serves one seeded request list twice, each on
// a fresh fleet, and checks identical answers with no wrong or failed one.
func TestFleetSameSeedSameAnswers(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a fleet")
	}
	in, err := newFleetInputs(3)
	if err != nil {
		t.Fatal(err)
	}
	lists := [][]fleetReq{in.seqs[0][:150], in.seqs[1][:150]}
	var answers [2][]string
	for round := range answers {
		f, err := startFleet(t.TempDir()+"/fleet", nil)
		if err != nil {
			t.Fatal(err)
		}
		clients := []*fleetClient{newFleetClient("client-0"), newFleetClient("client-1")}
		j := newFleetJudge(in)
		for _, l := range in.runLists(f, clients, [][]fleetReq{in.warmList(0), in.warmList(1)}) {
			for i := range l {
				j.judge(&l[i])
			}
		}
		for _, l := range in.runLists(f, clients, lists) {
			for i := range l {
				j.judge(&l[i])
				s := &l[i]
				answers[round] = append(answers[round], strings.Join(s.ans.Preconditions, ",")+"|"+invText(s.ans.Invariants))
			}
		}
		j.recheck(3, io.Discard)
		for _, c := range clients {
			c.close()
		}
		if err := f.close(); err != nil {
			t.Fatal(err)
		}
		if j.wrong != 0 || j.failed != 0 {
			t.Fatalf("round %d: %d wrong, %d failed answers (%v)", round, j.wrong, j.failed, j.errs)
		}
	}
	if !reflect.DeepEqual(answers[0], answers[1]) {
		t.Error("the same request list got different answers on two fleets")
	}
}

func invText(invs map[string]string) string {
	b, _ := json.Marshal(invs) // map keys marshal sorted
	return string(b)
}

// TestWrongInvariantCounted feeds the recheck wrong answers: a paper cell
// whose solution is replaced by one that is not inductive, and a fleet
// proof with a wrong invariant. Each must count as a wrong answer.
func TestWrongInvariantCounted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a verifier cell")
	}
	task := bench.ArrayListTasks()[3] // List Delete
	r := runCell(&cell{idx: 0, task: task, method: core.LFP}, nil, nil, "")
	if !r.v.proved {
		t.Fatal("List Delete LFP did not prove")
	}
	j := newPaperJudge(1)
	j.judge(r)
	if j.wrong != 0 || j.decided != 1 {
		t.Fatalf("correct proof judged wrong=%d decided=%d", j.wrong, j.decided)
	}
	// ∀k. V[k] = 0 (the empty antecedent set) does not hold on loop entry.
	r.v.sols = []template.Solution{{"v1": template.NewPredSet()}}
	r.v.text += " (corrupted)"
	j.judge(r)
	if j.wrong != 1 {
		t.Errorf("corrupted proof: wrong_answers = %d, want 1", j.wrong)
	}

	in, err := newFleetInputs(1)
	if err != nil {
		t.Fatal(err)
	}
	fj := newFleetJudge(in)
	fj.verify["bad"] = fleetVerifyAnswer{item: 0, invs: map[string]string{"loop": "forall j: ((j >= 0) => (A[j] = 0))"}}
	fj.recheck(1, io.Discard)
	if fj.wrong != 1 {
		t.Errorf("wrong fleet invariant: wrong_answers = %d, want 1", fj.wrong)
	}
}
