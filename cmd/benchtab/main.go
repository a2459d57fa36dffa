// Command benchtab regenerates the tables and figures of the paper's
// evaluation section (§7) against this reproduction.
//
// Usage:
//
//	benchtab [-table 1|2|3|4|5|6|7] [-figure 4|5|6|7|8|9] [-suite default|quick] [-timeout 120s] [-all]
//	         [-parallel N] [-junk 10,20,30] [-cpuprofile FILE] [-memprofile FILE]
//
// With -parallel N > 1 the (task, method) cells of each table run
// concurrently on N workers (default: the number of CPUs); the printed
// tables are identical to a sequential run, and a trailing line reports the
// achieved wall-clock speedup (sum of per-cell times / elapsed).
//
// -suite runs a fixed task list outside the paper's tables and prints one
// row per cell (time, SMT queries, context probes, Fourier–Motzkin
// eliminations): "default" is the representative suite `make profile`
// profiles, "quick" the one-task sanity run behind `make bench-quick`. -cpuprofile/-memprofile write
// runtime/pprof profiles covering whatever work the other flags request.
//
// Figures 4 and 6–9 are histograms over the statistics collected while the
// requested tables run; asking for them alone runs the Table 4 suite to
// populate the collector. Figure 5 runs the robustness sweep (slow) over
// the -junk predicate counts.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/stats"
)

func main() {
	table := flag.Int("table", 0, "regenerate one table (1-7; 7 is the general-LIA family)")
	figure := flag.Int("figure", 0, "regenerate one figure (4-9)")
	suite := flag.String("suite", "", "run a task suite and print one row per cell: default or quick")
	timeout := flag.Duration("timeout", 120*time.Second, "per-(task,method) timeout")
	all := flag.Bool("all", false, "regenerate every table and figure")
	junk := flag.String("junk", "10,20,30", "comma-separated junk-predicate counts for figure 5")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "number of (task,method) cells run concurrently (1 = sequential)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	counts, err := parseCounts(*junk)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtab: -junk: %v\n", err)
		os.Exit(2)
	}
	var tasks []bench.Task
	switch *suite {
	case "":
	case "default":
		tasks = bench.DefaultSuite()
	case "quick":
		tasks = bench.QuickSuite()
	default:
		fmt.Fprintf(os.Stderr, "benchtab: no suite %q (want default or quick)\n", *suite)
		os.Exit(2)
	}
	if *table == 0 && *figure == 0 && tasks == nil && !*all {
		fmt.Fprintln(os.Stderr, "benchtab: pass -table N, -figure N, -suite NAME, or -all")
		os.Exit(2)
	}

	// The searches churn short-lived formulas and candidate fills; at the
	// default GOGC=100 a benchmark run spends roughly a quarter of its wall
	// time collecting them. A batch harness trades heap headroom for
	// throughput, so collect 8x less eagerly — unless the caller pinned GOGC
	// in the environment, which always wins.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(800)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize up-to-date allocation statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			}
		}()
	}

	c := stats.New()
	r := &bench.Runner{Timeout: *timeout, Stats: c, Parallel: *parallel}
	w := os.Stdout
	start := time.Now()
	defer func() {
		if cell := r.CellTime(); cell > 0 {
			wall := time.Since(start)
			fmt.Fprintf(w, "parallel=%d: cell time %.1fs, wall %.1fs, speedup %.2fx\n",
				*parallel, cell.Seconds(), wall.Seconds(), cell.Seconds()/wall.Seconds())
		}
	}()

	if tasks != nil {
		bench.SuiteTable(w, r, *suite, tasks)
	}
	if *all {
		runTable(w, r, 1)
		runTable(w, r, 2)
		runTable(w, r, 3)
		runTable(w, r, 4)
		runTable(w, r, 6)
		runTable(w, r, 7)
		bench.Figure4(w, c)
		runFigure(w, r, c, 5, counts)
		bench.Figure6(w, c)
		bench.Figure7(w, c)
		bench.Figure8(w, c)
		bench.Figure9(w, c)
		return
	}
	if *table != 0 {
		runTable(w, r, *table)
	}
	if *figure != 0 {
		if *figure != 5 && len(c.QueryDurations()) == 0 {
			// Populate the collector with a representative run.
			bench.Table4(io.Discard, r)
		}
		runFigure(w, r, c, *figure, counts)
	}
}

func runTable(w io.Writer, r *bench.Runner, n int) {
	switch n {
	case 1:
		bench.Table1(w)
	case 2:
		bench.Table2(w, r)
	case 3, 5:
		bench.Table3And5(w, r)
	case 4:
		bench.Table4(w, r)
	case 6:
		bench.Table6(w, r)
	case 7:
		bench.Table7(w, r)
	default:
		fmt.Fprintf(os.Stderr, "benchtab: no table %d\n", n)
		os.Exit(2)
	}
}

func runFigure(w io.Writer, r *bench.Runner, c *stats.Collector, n int, counts []int) {
	switch n {
	case 4:
		bench.Figure4(w, c)
	case 5:
		bench.Figure5(w, r, bench.SortednessTasks()[4], counts) // quick sort inner: fastest base
	case 6:
		bench.Figure6(w, c)
	case 7:
		bench.Figure7(w, c)
	case 8:
		bench.Figure8(w, c)
	case 9:
		bench.Figure9(w, c)
	default:
		fmt.Fprintf(os.Stderr, "benchtab: no figure %d\n", n)
		os.Exit(2)
	}
}

// parseCounts parses the -junk list: comma-separated positive integers.
func parseCounts(s string) ([]int, error) {
	var counts []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("malformed count %q", part)
		}
		if n <= 0 {
			return nil, fmt.Errorf("count %d is not positive", n)
		}
		counts = append(counts, n)
	}
	return counts, nil
}
