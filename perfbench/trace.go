package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// span is one timed call across a layer boundary. Spans of one request (a
// paper cell in one pass, or one fleet request) share Req.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer holds spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced passes run.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span and returns its id (0 on a nil tracer).
func (t *tracer) add(name, req string, parent int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Req: req,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	return id
}

// selfTimes returns each span name's summed self time: its duration minus
// the part its children cover (children of one span do not overlap here).
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int64]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.Name] += time.Duration(s.End - s.Start - child[s.ID])
	}
	return out
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// --- runtime counters ---

type memSample struct {
	totalAlloc uint64
	numGC      uint32
	pauseNs    uint64
}

func readMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSample{totalAlloc: ms.TotalAlloc, numGC: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

// addRuntime records allocation and GC activity since before, divided over
// the given number of passes.
func addRuntime(m metricSet, before memSample, passes int) {
	after := readMem()
	n := float64(passes)
	m["alloc_mb"] = float64(after.totalAlloc-before.totalAlloc) / (1 << 20) / n
	m["gc.cycles"] = float64(after.numGC-before.numGC) / n
	m["gc.pause_ms"] = float64(after.pauseNs-before.pauseNs) / 1e6 / n
}

// cpuSeconds returns the process's user plus system CPU time. Unlike wall
// time it does not grow while the hypervisor runs other guests on the
// machine's CPUs (steal time).
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// heapMB forces a GC and returns the live heap.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// --- CPU attribution ---

// cpuProfile profiles the benchmark process until stop is called, then
// buckets the samples by leaf-frame package with the Go toolchain's pprof.
type cpuProfile struct {
	path string
	f    *os.File
}

func startCPUProfile(dir, name string) (*cpuProfile, error) {
	path := filepath.Join(dir, name+".cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &cpuProfile{path: path, f: f}, nil
}

// stop ends profiling and adds the cpu.* shares to m.
func (c *cpuProfile) stop(m metricSet) error {
	pprof.StopCPUProfile()
	if err := c.f.Close(); err != nil {
		return err
	}
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-unit=ns", c.path).Output()
	if err != nil {
		return fmt.Errorf("go tool pprof: %w", err)
	}
	flat, err := parsePprofTop(out)
	if err != nil {
		return err
	}
	var total float64
	shares := map[string]float64{}
	for fn, ns := range flat {
		shares[cpuBucket(fn)] += ns
		total += ns
	}
	for _, d := range perLayer {
		if strings.HasPrefix(d.Name, "cpu.") {
			m[d.Name] = 0
			if total > 0 {
				m[d.Name] = shares[d.Name] / total
			}
		}
	}
	return nil
}

// parsePprofTop reads `go tool pprof -top -unit=ns` output into flat
// nanoseconds per function.
func parsePprofTop(out []byte) (map[string]float64, error) {
	flat := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	inTable := false
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(fields) >= 2 && fields[0] == "flat" && fields[1] == "flat%"
			continue
		}
		if len(fields) < 6 {
			continue
		}
		ns, err := strconv.ParseFloat(strings.TrimSuffix(fields[0], "ns"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof line %q: %w", sc.Text(), err)
		}
		flat[strings.Join(fields[5:], " ")] += ns
	}
	if !inTable {
		return nil, fmt.Errorf("pprof -top output has no table")
	}
	return flat, sc.Err()
}

// cpuBucket maps a leaf function to its cpu.* metric: the module's layers by
// package, the runtime split into GC, allocation and the rest.
func cpuBucket(fn string) string {
	fn = strings.TrimSuffix(fn, " (inline)")
	pkg := fn
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch pkg {
	case "repro/internal/sat", "repro/internal/smt", "repro/internal/lia",
		"repro/internal/optimal", "repro/internal/template", "repro/internal/logic",
		"repro/internal/fixpoint", "repro/internal/cbi", "repro/internal/store",
		"repro/internal/serve", "repro/internal/rpc", "repro/internal/route":
		return "cpu." + strings.TrimPrefix(pkg, "repro/internal/")
	case "net/http":
		return "cpu.net_http"
	case "encoding/json":
		return "cpu.json"
	case "runtime":
		name := strings.TrimPrefix(fn, "runtime.")
		for _, s := range gcFrames {
			if strings.Contains(name, s) {
				return "cpu.gc"
			}
		}
		for _, s := range allocFrames {
			if strings.Contains(name, s) {
				return "cpu.alloc"
			}
		}
	}
	return "cpu.other"
}

// gcFrames and allocFrames are substrings of runtime leaf functions that do
// garbage-collection and allocation work respectively.
var (
	gcFrames = []string{
		"gcDrain", "gcBgMarkWorker", "scanobject", "scanblock", "scanstack", "scanframe",
		"greyobject", "findObject", "markroot", "markBits", "gcWork", "gcMark",
		"sweep", "wbBuf", "gcWriteBarrier", "typePointers", "spanOf", "gcFlush",
	}
	allocFrames = []string{
		"mallocgc", "nextFreeFast", "nextFree", "mcache", "mcentral", "mheap",
		"memclrNoHeapPointers", "newobject", "newarray", "growslice", "makeslice",
		"makemap", "heapSetType", "heapBitsSetType", "publicationBarrier", "allocSpan",
	}
)
