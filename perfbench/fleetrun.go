package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// runFleetMixed is the fleet-mixed workload: an in-process fleet answers a
// closed loop of mostly store-replayed verify requests and a fixed share of
// precondition requests that run the engine on warm sessions.
func runFleetMixed(o options, w io.Writer) (out outcome, err error) {
	in, err := newFleetInputs(o.seed)
	if err != nil {
		return outcome{}, err
	}
	var rec *chainRecorder
	if o.trace {
		rec = newChainRecorder()
	}
	clients := make([]*fleetClient, fleetClients)
	for i := range clients {
		clients[i] = newFleetClient(fmt.Sprintf("client-%d", i))
		defer clients[i].close()
	}
	j := newFleetJudge(in)

	// Set-up: fleet start, VS3R upgrade and the warm-up pass that solves
	// the corpus once, repeated; the last fleet serves the measured phase.
	var f *fleet
	var setup setupTimes
	for k := 0; k < fleetSetups; k++ {
		if f != nil {
			if err := f.close(); err != nil {
				return outcome{}, err
			}
		}
		stop := setup.start()
		f, err = startFleet(filepath.Join(o.out, fmt.Sprintf("fleet-%d-%d", os.Getpid(), k)), rec)
		if err != nil {
			return outcome{}, err
		}
		warm := in.runLists(f, clients, [][]fleetReq{in.warmList(0), in.warmList(1)})
		stop()
		for _, l := range warm {
			for i := range l {
				j.judge(&l[i])
			}
		}
	}
	defer func() {
		if cerr := f.close(); err == nil {
			err = cerr
		}
	}()

	ph, err := startPhase(o)
	if err != nil {
		return outcome{}, err
	}
	var replay, session []float64
	var okCount int
	var okSeconds float64
	lat := &chainLatencies{}
	for n := 0; ph.clock.more(); n++ {
		traced := ph.tracerFor(n) != nil
		var before fleetCounters
		if traced {
			if before, err = f.counters(); err != nil {
				return outcome{}, err
			}
			rec.on.Store(true)
		}
		ph.startPass()
		res := in.runLists(f, clients, in.seqs)
		wall := ph.passDone(n, fleetClients*perClientPass)
		if traced {
			rec.on.Store(false)
			after, err := f.counters()
			if err != nil {
				return outcome{}, err
			}
			addDelta(ph.layer, before, after)
			lat.match(ph, rec, clients, res, fmt.Sprintf("pass%d", n), w)
		} else {
			okSeconds += wall.Seconds()
		}
		for ci := range res {
			for i := range res[ci] {
				s := &res[ci][i]
				j.judge(s)
				if !s.ok {
					continue
				}
				ms := durMS(s.span.end.Sub(s.span.start))
				if traced {
					continue
				}
				okCount++
				if s.req.session {
					session = append(session, ms)
				} else {
					replay = append(replay, ms)
				}
			}
		}
	}
	heap := heapMB()
	layer, err := ph.finish(o, w)
	if err != nil {
		return outcome{}, err
	}
	if layer != nil {
		lat.fill(layer)
		ss := f.backends[0].st.Stats()
		layer["store.log_mb"] = float64(ss.LogBytes) / (1 << 20)
	}
	j.recheck(o.seed, w)

	decidedShare := float64(j.decided) / float64(j.attempted)
	setup.report(w, o.workload)
	report(w, o.workload, "pass_s", median(ph.untracedWalls), "s", fmt.Sprintf("%d requests, median of %d passes", fleetClients*perClientPass, len(ph.untracedWalls)))
	report(w, o.workload, "rps", float64(okCount)/okSeconds, "req/s", fmt.Sprintf("%d OK requests in %.3gs of untraced passes", okCount, okSeconds))
	reportLatency(w, o.workload, "replay", replay)
	reportLatency(w, o.workload, "session", session)
	report(w, o.workload, "error_share", float64(j.failed)/float64(j.attempted), "ratio", fmt.Sprintf("%d of %d", j.failed, j.attempted))
	report(w, o.workload, "wrong_answers", float64(j.wrong), "count", "")
	report(w, o.workload, "heap_mb", heap, "MB", "")
	return outcome{
		attempted: j.attempted, failed: j.failed, wrong: j.wrong,
		metrics: pick(o, layer, metricSet{
			"setup_s": median(setup.cpu), "pass_cpu_s": median(ph.untracedCPU),
			"decided_share": decidedShare, "heap_mb": heap,
		}),
	}, nil
}

// reportLatency prints a class's median and, when at least ten samples lie
// beyond it, its p99.
func reportLatency(w io.Writer, workload, class string, ms []float64) {
	report(w, workload, class+"_p50_ms", median(ms), "ms", fmt.Sprintf("%d samples", len(ms)))
	if p99, ok := percentile(ms, 0.99); ok {
		report(w, workload, class+"_p99_ms", p99, "ms", fmt.Sprintf("%d samples", len(ms)))
	}
}

// chainLatencies collects the traced passes' per-layer self times.
type chainLatencies struct {
	replaySelfUS, sessionSelfUS, engineMS, routeSelfUS, clientSelfUS []float64
	unmatched                                                        int
}

// match pairs each client's k-th request with the k-th router and backend
// spans recorded under its client key, records the client -> router ->
// backend span chain, and collects the self times.
func (l *chainLatencies) match(ph *phase, rec *chainRecorder, clients []*fleetClient, res [][]sample, label string, w io.Writer) {
	router, backend := rec.take()
	for ci, c := range clients {
		cs, rs, bs := res[ci], router[c.key], backend[c.key]
		if len(rs) != len(cs) || len(bs) != len(cs) {
			l.unmatched += len(cs)
			fmt.Fprintf(w, "fleet-mixed: %s: %s has %d requests, %d router spans, %d backend spans; not matched\n",
				label, c.key, len(cs), len(rs), len(bs))
			continue
		}
		for k := range cs {
			s := &cs[k]
			req := fmt.Sprintf("%s/%s#%d", label, c.key, k)
			cid := ph.tr.add("client", req, 0, s.span.start, s.span.end)
			rid := ph.tr.add("router", req, cid, rs[k].start, rs[k].end)
			ph.tr.add("backend", req, rid, bs[k].start, bs[k].end)
			clientD, routerD, backendD := s.span.end.Sub(s.span.start), rs[k].end.Sub(rs[k].start), bs[k].end.Sub(bs[k].start)
			l.clientSelfUS = append(l.clientSelfUS, us(clientD-routerD))
			l.routeSelfUS = append(l.routeSelfUS, us(routerD-backendD))
			if !s.ok {
				continue
			}
			engine := time.Duration(s.ans.DurationMS * float64(time.Millisecond))
			switch {
			case s.req.session:
				l.sessionSelfUS = append(l.sessionSelfUS, us(backendD-engine))
				l.engineMS = append(l.engineMS, s.ans.DurationMS)
				ph.layer["precond.s"] += engine.Seconds()
				ph.layer["fixpoint.steps"] += float64(s.ans.Steps)
			case s.ans.FromStore:
				l.replaySelfUS = append(l.replaySelfUS, us(backendD))
			}
		}
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// fill adds the latency percentiles to the per-layer metrics.
func (l *chainLatencies) fill(m metricSet) {
	p99 := func(xs []float64) float64 { v, _ := percentile(xs, 0.99); return v }
	m["serve.replay_self_us.p50"] = median(l.replaySelfUS)
	m["serve.replay_self_us.p99"] = p99(l.replaySelfUS)
	m["serve.session_self_us.p50"] = median(l.sessionSelfUS)
	m["serve.session_self_us.p99"] = p99(l.sessionSelfUS)
	m["engine.session_ms"] = median(l.engineMS)
	m["route.self_us.p50"] = median(l.routeSelfUS)
	m["route.self_us.p99"] = p99(l.routeSelfUS)
	m["client.self_us.p50"] = median(l.clientSelfUS)
}
