// Command vs3load is the load generator and regression gate for the
// serving tier: it drives a vs3d backend or a vs3router front tier with a
// mixed problem corpus at configurable concurrency and reports p50/p95/p99
// latency, throughput, shed rate, verdict correctness, and the server-side
// cache economics (from-scratch SMT queries, cache-hit ratio). Scale-out
// and persistence PRs run it before/after to prove they did not regress the
// warm path.
//
// Usage:
//
//	vs3load -url http://localhost:8079 [-c 8] [-n 200] [-timeout-ms 0]
//	        [-corpus default|smoke] [-client KEY] [-json out.json]
//	        [-restart-cmd 'systemctl restart vs3d'] [-restart-wait 30s]
//
// Every verify is one HTTP POST to /v1/verify, the only client edge of both
// vs3d and vs3router; /v1/stats probes and health checks are HTTP too.
//
// With -restart-cmd the run becomes the warm-restart scenario: the normal
// load phase runs first, then the command is executed (it must restart the
// daemon at -url; vs3load polls /healthz up to -restart-wait), then exactly
// one corpus pass is driven against the restarted instance. The gate then
// also requires recovery: no wrong verdicts after the restart, p95 within
// 1.5x of the pre-restart phase, and a per-request from-scratch SMT query
// rate no worse than before — i.e. the daemon resumed warm from its
// knowledge store (vs3d -store) instead of recomputing.
//
// Exit status: 0 on success, 1 on setup errors, 2 when any verdict was
// incorrect, any request failed at the transport level, or (with
// -restart-cmd) the restarted daemon failed the recovery gate.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/load"
)

func main() {
	url := flag.String("url", "http://localhost:8080", "vs3d or vs3router base URL")
	conc := flag.Int("c", 8, "concurrent requests")
	n := flag.Int("n", 0, "total requests (0 = 4 passes over the corpus)")
	timeoutMS := flag.Int64("timeout-ms", 0, "per-request deadline forwarded to the server (0 = server default)")
	corpusName := flag.String("corpus", "default", "corpus: default or smoke")
	clientKey := flag.String("client", "vs3load", "client key for per-client fair queueing")
	jsonOut := flag.String("json", "", "also write the report as JSON to this file")
	restartCmd := flag.String("restart-cmd", "", "shell command restarting the daemon mid-test (enables the warm-restart scenario)")
	restartWait := flag.Duration("restart-wait", 30*time.Second, "how long to wait for /healthz after -restart-cmd")
	flag.Parse()

	var corpus []load.Item
	switch *corpusName {
	case "default":
		corpus = load.DefaultCorpus()
	case "smoke":
		corpus = load.SmokeCorpus()
	default:
		fmt.Fprintf(os.Stderr, "vs3load: unknown corpus %q (want default or smoke)\n", *corpusName)
		os.Exit(1)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	opts := load.Options{
		BaseURL:     *url,
		Corpus:      corpus,
		Concurrency: *conc,
		Requests:    *n,
		TimeoutMS:   *timeoutMS,
		ClientKey:   *clientKey,
	}

	if *restartCmd != "" {
		res, err := load.RunRestart(ctx, opts, func(ctx context.Context) (string, error) {
			cmd := exec.CommandContext(ctx, "sh", "-c", *restartCmd)
			cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
			if err := cmd.Run(); err != nil {
				return "", fmt.Errorf("%q: %w", *restartCmd, err)
			}
			return "", load.WaitHealthy(ctx, nil, *url, *restartWait)
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "vs3load:", err)
			os.Exit(1)
		}
		res.WriteReport(os.Stdout)
		if *jsonOut != "" {
			b, _ := json.MarshalIndent(res, "", "  ")
			if err := os.WriteFile(*jsonOut, append(b, '\n'), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "vs3load:", err)
				os.Exit(1)
			}
		}
		bad := res.Before.Incorrect + res.Before.Errors + res.After.Incorrect + res.After.Errors
		if bad > 0 || !res.Recovered {
			fmt.Fprintf(os.Stderr, "vs3load: REGRESSION: %d incorrect/errors, recovered=%v\n", bad, res.Recovered)
			os.Exit(2)
		}
		return
	}

	res, err := load.Run(ctx, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vs3load:", err)
		os.Exit(1)
	}
	res.WriteReport(os.Stdout)
	if *jsonOut != "" {
		b, _ := json.MarshalIndent(res, "", "  ")
		if err := os.WriteFile(*jsonOut, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "vs3load:", err)
			os.Exit(1)
		}
	}
	if res.Incorrect > 0 || res.Errors > 0 {
		fmt.Fprintf(os.Stderr, "vs3load: REGRESSION: %d incorrect verdicts, %d errors\n", res.Incorrect, res.Errors)
		os.Exit(2)
	}
}
