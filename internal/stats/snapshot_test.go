package stats

import (
	"testing"
	"time"
)

func record(c *Collector, queries int) {
	for i := 0; i < queries; i++ {
		c.RecordQuery(time.Duration(i) * time.Millisecond)
	}
	c.RecordNegSolutionSize(2)
	c.RecordOptSolutionCount(3)
	c.RecordCandidates(4)
	c.RecordSATSize(10, 5)
	c.RecordCoreSize(1)
	c.RecordCoreEviction()
}

func TestSnapshotCounts(t *testing.T) {
	c := New()
	record(c, 3)
	s := c.Snapshot()
	want := Snapshot{
		Queries:        3,
		NegSolutions:   1,
		OptCalls:       1,
		CandidateSteps: 1,
		SATFormulas:    1,
		UnsatCores:     1,
		CoreEvictions:  1,
	}
	want.QueryBuckets[0] = 2 // 0ms, 1ms
	want.QueryBuckets[1] = 1 // 2ms
	if s != want {
		t.Errorf("Snapshot() = %+v, want %+v", s, want)
	}
	if (&Collector{}).Snapshot() != (Snapshot{}) {
		t.Error("empty collector snapshot not zero")
	}
	var nilc *Collector
	if nilc.Snapshot() != (Snapshot{}) {
		t.Error("nil collector snapshot not zero")
	}
}

// TestSnapshotAddTake checks the laws the server relies on: Take returns
// exactly what was recorded since the previous Take and clears it (a second
// Take is zero), the sum of consecutive Takes equals one Snapshot over the
// same records, and Add folds them into a fleet aggregate.
func TestSnapshotAddTake(t *testing.T) {
	whole, parts := New(), New()
	record(whole, 2)
	record(whole, 5)
	record(parts, 2)
	first := parts.Take()
	if first.Queries != 2 || first.NegSolutions != 1 || first.CoreEvictions != 1 {
		t.Errorf("first Take = %+v, want 2 queries and one of each other record", first)
	}
	if got := parts.Take(); got != (Snapshot{}) {
		t.Errorf("second Take = %+v, want zero", got)
	}
	if got := parts.Snapshot(); got != (Snapshot{}) {
		t.Errorf("Snapshot after Take = %+v, want zero", got)
	}
	record(parts, 5)
	if got, want := first.Add(parts.Take()), whole.Snapshot(); got != want {
		t.Errorf("sum of Takes = %+v, want %+v", got, want)
	}
	var nilc *Collector
	if nilc.Take() != (Snapshot{}) {
		t.Error("nil collector Take not zero")
	}
}
