package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/load"
	"repro/internal/route"
	"repro/internal/rpc"
	"repro/internal/serve"
	"repro/internal/store"
)

// Fleet shape and load: two store-backed backends behind one router, a
// closed loop of two clients (one per core), a fixed session share.
const (
	fleetBackends  = 2
	fleetClients   = 2
	perClientPass  = 1000 // requests per client per pass
	sessionPercent = 10   // share of /v1/preconditions requests
	fleetSetups    = 3    // setup_s is the median of this many fleet set-ups
)

// fleetReq is one request of the seeded sequence: a corpus verify item
// (replay class) or a precondition spec (session class).
type fleetReq struct {
	session bool
	item    int
}

// fleetSequence draws each client's request list from the seed: exactly
// sessionPercent of positions are session requests, the rest pick a corpus
// item uniformly.
func fleetSequence(seed int64, clients, perClient, items, specs int) [][]fleetReq {
	rng := rand.New(rand.NewSource(seed))
	seqs := make([][]fleetReq, clients)
	for c := range seqs {
		session := make([]bool, perClient)
		for _, i := range rng.Perm(perClient)[:perClient*sessionPercent/100] {
			session[i] = true
		}
		seq := make([]fleetReq, perClient)
		for i := range seq {
			if session[i] {
				seq[i] = fleetReq{session: true, item: rng.Intn(specs)}
			} else {
				seq[i] = fleetReq{item: rng.Intn(items)}
			}
		}
		seqs[c] = seq
	}
	return seqs
}

// --- the fleet ---

type fleetBackend struct {
	srv     *serve.Server
	st      *store.Store
	httpSrv *http.Server
	rpcSrv  *rpc.Server
	rpcLn   net.Listener
	url     string
}

// fleet is an in-process vs3d × 2 + vs3router deployment built from the
// same constructors and defaults the two commands use.
type fleet struct {
	dir       string
	backends  []*fleetBackend
	router    *route.Router
	routerSrv *http.Server
	url       string
	rec       *chainRecorder
	wg        sync.WaitGroup
}

func (f *fleet) serve(srv *http.Server, ln net.Listener) {
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed on Close
	}()
}

// startFleet brings the fleet up on loopback ports with fresh stores under
// dir. With rec non-nil, the router's HTTP handler and each backend's rpc
// handler are wrapped to record spans.
func startFleet(dir string, rec *chainRecorder) (*fleet, error) {
	f := &fleet{dir: dir, rec: rec}
	var urls []string
	for i := 0; i < fleetBackends; i++ {
		cfg := serve.Config{ID: fmt.Sprintf("vs3d-%d", i), DefaultTimeout: 60 * time.Second, MaxTimeout: 5 * time.Minute}
		st, err := store.Open(filepath.Join(dir, fmt.Sprintf("b%d", i)), store.Options{Params: cfg.Core.SMT.StoreParams()})
		if err != nil {
			f.close()
			return nil, err
		}
		cfg.Store = st
		b := &fleetBackend{srv: serve.New(cfg), st: st}
		f.backends = append(f.backends, b)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, err
		}
		b.rpcLn, err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			ln.Close()
			f.close()
			return nil, err
		}
		var h rpc.Handler = b.srv
		if rec != nil {
			h = tracedRPC{h: b.srv, rec: rec}
		}
		b.rpcSrv = rpc.NewServer(h, rpc.ServerConfig{WriteTimeout: 10 * time.Second})
		b.srv.AdvertiseRPC(rpc.AdvertiseAddr(b.rpcLn.Addr()))
		b.srv.SetRPCStats(b.rpcSrv.Stats)
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			_ = b.rpcSrv.Serve(b.rpcLn) // returns net.ErrClosed on Close
		}()
		b.httpSrv = &http.Server{Handler: b.srv.Handler()}
		f.serve(b.httpSrv, ln)
		b.url = "http://" + ln.Addr().String()
		urls = append(urls, b.url)
	}
	var err error
	f.router, err = route.New(route.Config{
		Backends: urls, Weights: []float64{1, 1}, Replicas: 128, Policy: route.Affinity,
		HealthInterval: 2 * time.Second, HedgeMin: 10 * time.Millisecond, HedgeMax: time.Second,
		StoreAware: true, ID: "vs3router",
	})
	if err != nil {
		f.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, err
	}
	var h http.Handler = f.router.Handler()
	if rec != nil {
		h = tracedHTTP{h: h, rec: rec}
	}
	f.routerSrv = &http.Server{Handler: h}
	f.serve(f.routerSrv, ln)
	f.url = "http://" + ln.Addr().String()
	if err := f.awaitRPC(); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// awaitRPC waits until the router has upgraded every backend to VS3R.
func (f *fleet) awaitRPC() error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var st struct {
			Backends []struct {
				Proto string `json:"proto"`
			} `json:"backends"`
		}
		if err := getJSON(f.url+"/v1/stats", &st); err == nil && len(st.Backends) == fleetBackends {
			upgraded := 0
			for _, b := range st.Backends {
				if b.Proto == "rpc" {
					upgraded++
				}
			}
			if upgraded == fleetBackends {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return errors.New("router did not upgrade the backends to VS3R within 10s")
}

// close stops the router and the backends, closes the stores, waits for
// every server goroutine and removes the fleet's directory.
func (f *fleet) close() error {
	var errs []error
	if f.routerSrv != nil {
		errs = append(errs, f.routerSrv.Close())
	}
	if f.router != nil {
		f.router.Close()
	}
	for _, b := range f.backends {
		if b.httpSrv != nil {
			errs = append(errs, b.httpSrv.Close())
		}
		if b.rpcSrv != nil {
			b.rpcLn.Close()
			b.rpcSrv.Close()
		}
		errs = append(errs, b.st.Close())
	}
	f.wg.Wait()
	errs = append(errs, os.RemoveAll(f.dir))
	return errors.Join(errs...)
}

// --- tracing wrappers ---

// chainRecorder collects router and backend spans of verify and
// preconditions requests by client key. Each client has at most one
// request in flight and hedging is off, so the k-th span of a client at
// each layer belongs to that client's k-th request.
type chainRecorder struct {
	on      atomic.Bool
	mu      sync.Mutex
	router  map[string][]stamp
	backend map[string][]stamp
}

type stamp struct{ start, end time.Time }

func newChainRecorder() *chainRecorder {
	return &chainRecorder{router: map[string][]stamp{}, backend: map[string][]stamp{}}
}

func (r *chainRecorder) add(layer map[string][]stamp, client string, s stamp) {
	r.mu.Lock()
	layer[client] = append(layer[client], s)
	r.mu.Unlock()
}

// take returns and clears the recorded spans.
func (r *chainRecorder) take() (router, backend map[string][]stamp) {
	r.mu.Lock()
	defer r.mu.Unlock()
	router, backend = r.router, r.backend
	r.router, r.backend = map[string][]stamp{}, map[string][]stamp{}
	return router, backend
}

type tracedHTTP struct {
	h   http.Handler
	rec *chainRecorder
}

func (t tracedHTTP) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if !t.rec.on.Load() || (req.URL.Path != "/v1/verify" && req.URL.Path != "/v1/preconditions") {
		t.h.ServeHTTP(w, req)
		return
	}
	start := time.Now()
	t.h.ServeHTTP(w, req)
	t.rec.add(t.rec.router, req.Header.Get("X-VS3-Client"), stamp{start, time.Now()})
}

type tracedRPC struct {
	h   rpc.Handler
	rec *chainRecorder
}

func (t tracedRPC) ServeRPC(ctx context.Context, req rpc.Request) rpc.Response {
	if !t.rec.on.Load() || (req.Kind != rpc.KindVerify && req.Kind != rpc.KindPreconditions) {
		return t.h.ServeRPC(ctx, req)
	}
	start := time.Now()
	resp := t.h.ServeRPC(ctx, req)
	t.rec.add(t.rec.backend, req.Client, stamp{start, time.Now()})
	return resp
}

// --- clients ---

// fleetAnswer is the part of a verify or preconditions response the
// benchmark reads.
type fleetAnswer struct {
	Proved        bool              `json:"proved"`
	Aborted       bool              `json:"aborted"`
	FromStore     bool              `json:"from_store"`
	DurationMS    float64           `json:"duration_ms"`
	Steps         int               `json:"steps"`
	Invariants    map[string]string `json:"invariants"`
	Preconditions []string          `json:"preconditions"`
}

// sample is one completed request as its client saw it.
type sample struct {
	req      fleetReq
	span     stamp
	ok       bool // HTTP 200, not aborted
	ans      fleetAnswer
	errorMsg string
}

type fleetClient struct {
	key string
	hc  *http.Client
}

func newFleetClient(key string) *fleetClient {
	return &fleetClient{key: key, hc: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1},
		Timeout:   2 * time.Minute,
	}}
}

func (c *fleetClient) close() { c.hc.CloseIdleConnections() }

// do sends one request and times it from send to the last body byte.
func (c *fleetClient) do(url string, body []byte) sample {
	var s sample
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		s.errorMsg = err.Error()
		return s
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-VS3-Client", c.key)
	s.span.start = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		s.span.end = time.Now()
		s.errorMsg = err.Error()
		return s
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.span.end = time.Now()
	switch {
	case err != nil:
		s.errorMsg = err.Error()
	case resp.StatusCode != http.StatusOK:
		s.errorMsg = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	default:
		if err := json.Unmarshal(raw, &s.ans); err != nil {
			s.errorMsg = err.Error()
		} else if s.ans.Aborted {
			s.errorMsg = "aborted"
		} else {
			s.ok = true
		}
	}
	return s
}

// workload inputs: request bodies per corpus item and precondition spec.
type fleetInputs struct {
	corpus    []load.Item
	bodies    [][]byte // per corpus item
	preBodies [][]byte // per precondition spec
	wantPre   [][]string
	seqs      [][]fleetReq
}

func newFleetInputs(seed int64) (*fleetInputs, error) {
	in := &fleetInputs{corpus: load.DefaultCorpus()}
	for _, it := range in.corpus {
		b, err := json.Marshal(serve.VerifyRequest{Spec: it.Spec, Method: it.Method})
		if err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, b)
	}
	for _, ps := range precondSpecs {
		b, err := json.Marshal(serve.VerifyRequest{Spec: ps.Spec})
		if err != nil {
			return nil, err
		}
		want, err := canonicalFormulas(ps.Want)
		if err != nil {
			return nil, err
		}
		in.preBodies = append(in.preBodies, b)
		in.wantPre = append(in.wantPre, want)
	}
	in.seqs = fleetSequence(seed, fleetClients, perClientPass, len(in.corpus), len(precondSpecs))
	return in, nil
}

// send issues one request of the sequence through the router.
func (in *fleetInputs) send(f *fleet, c *fleetClient, r fleetReq) sample {
	var s sample
	if r.session {
		s = c.do(f.url+"/v1/preconditions", in.preBodies[r.item])
	} else {
		s = c.do(f.url+"/v1/verify", in.bodies[r.item])
	}
	s.req = r
	return s
}

// runLists runs each client's list concurrently (closed loop: a client
// sends its next request when the previous answer arrives) and returns the
// samples per client.
func (in *fleetInputs) runLists(f *fleet, clients []*fleetClient, lists [][]fleetReq) [][]sample {
	out := make([][]sample, len(clients))
	var wg sync.WaitGroup
	for ci := range clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			res := make([]sample, 0, len(lists[ci]))
			for _, r := range lists[ci] {
				res = append(res, in.send(f, clients[ci], r))
			}
			out[ci] = res
		}(ci)
	}
	wg.Wait()
	return out
}

// warmList is the set-up pass: every corpus item once and every
// precondition spec twice per client, so every backend session that serves
// the session class has seen its problem.
func (in *fleetInputs) warmList(client int) []fleetReq {
	var l []fleetReq
	for i := range in.corpus {
		if i%fleetClients == client {
			l = append(l, fleetReq{item: i})
		}
	}
	for i := range precondSpecs {
		l = append(l, fleetReq{session: true, item: i}, fleetReq{session: true, item: i})
	}
	return l
}

// --- answer checking ---

// fleetJudge checks every answer against its known answer during the run
// and collects the distinct answers for the recheck after it.
type fleetJudge struct {
	in        *fleetInputs
	attempted int
	failed    int
	wrong     int
	decided   int
	errs      map[string]int
	verify    map[string]fleetVerifyAnswer // distinct proofs by item + invariants
	pres      map[string]int               // distinct precondition answers -> spec
	preOK     map[string]bool              // raw precondition answer -> equals the known set
}

type fleetVerifyAnswer struct {
	item int
	invs map[string]string
}

func newFleetJudge(in *fleetInputs) *fleetJudge {
	return &fleetJudge{in: in, errs: map[string]int{}, verify: map[string]fleetVerifyAnswer{},
		pres: map[string]int{}, preOK: map[string]bool{}}
}

func (j *fleetJudge) judge(s *sample) {
	j.attempted++
	if !s.ok {
		j.failed++
		j.errs[s.errorMsg]++
		return
	}
	if s.req.session {
		key := strings.Join(s.ans.Preconditions, "\x00")
		ok, seen := j.preOK[key]
		if !seen {
			got, err := canonicalFormulas(s.ans.Preconditions)
			ok = err == nil && strings.Join(got, "\x00") == strings.Join(j.in.wantPre[s.req.item], "\x00")
			j.preOK[key] = ok
			j.pres[key] = s.req.item
		}
		if !ok {
			j.wrong++
			return
		}
		j.decided++
		return
	}
	it := j.in.corpus[s.req.item]
	if s.ans.Proved != it.WantProved {
		j.wrong++
		return
	}
	if s.ans.Proved {
		lines := make([]string, 0, len(s.ans.Invariants))
		for cut, inv := range s.ans.Invariants {
			lines = append(lines, cut+": "+inv)
		}
		sort.Strings(lines)
		key := fmt.Sprintf("%d|%s", s.req.item, strings.Join(lines, "; "))
		if _, seen := j.verify[key]; !seen {
			j.verify[key] = fleetVerifyAnswer{item: s.req.item, invs: s.ans.Invariants}
		}
	}
	j.decided++
}

// recheck re-proves every distinct answer; each failure is a wrong answer
// (counted once per distinct answer).
func (j *fleetJudge) recheck(seed int64, w io.Writer) {
	keys := make([]string, 0, len(j.verify))
	for k := range j.verify {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		a := j.verify[k]
		it := j.in.corpus[a.item]
		if err := recheckSpecAnswer(it.Spec, a.invs, nil, seed); err != nil {
			j.wrong++
			fmt.Fprintf(w, "fleet-mixed: %s: recheck failed: %v\n", it.Name, err)
		}
	}
	for key, spec := range j.pres {
		if !j.preOK[key] {
			continue
		}
		if err := recheckSpecAnswer(precondSpecs[spec].Spec, nil, strings.Split(key, "\x00"), seed); err != nil {
			j.wrong++
			fmt.Fprintf(w, "fleet-mixed: %s: recheck failed: %v\n", precondSpecs[spec].Name, err)
		}
	}
	for msg, n := range j.errs {
		fmt.Fprintf(w, "fleet-mixed: %d failed requests: %s\n", n, msg)
	}
}

// --- /v1/stats ---

// backendStats is the part of a vs3d /v1/stats body the benchmark reads.
type backendStats struct {
	Requests         float64 `json:"requests"`
	Rejected         float64 `json:"rejected"`
	ProblemCacheHits float64 `json:"problem_cache_hits"`
	OutcomeHits      float64 `json:"store_outcome_hits"`
	Queries          float64 `json:"smt_queries"`
	CacheHits        float64 `json:"smt_cache_hits"`
	Contexts         float64 `json:"smt_contexts"`
	Probes           float64 `json:"assumption_probes"`
	LemmaReuse       float64 `json:"lemma_reuse"`
	SharedLemmas     float64 `json:"shared_lemmas"`
	CorePruned       float64 `json:"core_pruned"`
	CoreEvicted      float64 `json:"core_evicted"`
	FMScratch        float64 `json:"fm_scratch"`
	FMIncremental    float64 `json:"fm_incremental"`
	FMCubeHits       float64 `json:"fm_cube_hits"`
	FMCapHits        float64 `json:"fm_cap_hits"`
	Dormant          float64 `json:"dormant_contexts"`
	VerdictHits      float64 `json:"store_verdict_hits"`
	ConsHits         float64 `json:"store_cons_hits"`
	WarmLemmas       float64 `json:"store_warm_lemmas"`
	WarmCores        float64 `json:"store_warm_cores"`
	Appended         float64 `json:"store_appended"`
	Deduped          float64 `json:"store_deduped"`
	Dropped          float64 `json:"store_dropped"`
	Flushes          float64 `json:"store_flushes"`
	LogBytes         float64 `json:"store_log_bytes"`
	Collector        struct {
		OptCalls     float64 `json:"optimal_calls"`
		NegSolutions float64 `json:"neg_solutions"`
	} `json:"collector"`
}

// fleetCounters is one reading of every counter the traced run differences.
type fleetCounters struct {
	backends    []backendStats
	storeHits   float64 // router placements moved by a digest claim
	rpcRequests float64
}

func (f *fleet) counters() (fleetCounters, error) {
	var c fleetCounters
	for _, b := range f.backends {
		var s backendStats
		if err := getJSON(b.url+"/v1/stats", &s); err != nil {
			return c, err
		}
		c.backends = append(c.backends, s)
		_, _, reqs, _ := b.rpcSrv.Stats()
		c.rpcRequests += float64(reqs)
	}
	var rs struct {
		StoreHits float64 `json:"route_store_hits"`
	}
	if err := getJSON(f.url+"/v1/stats", &rs); err != nil {
		return c, err
	}
	c.storeHits = rs.StoreHits
	return c, nil
}

// addDelta adds the counter movement between two readings to m.
func addDelta(m metricSet, before, after fleetCounters) {
	for i := range after.backends {
		a, b := after.backends[i], before.backends[i]
		m["serve.requests"] += a.Requests - b.Requests
		m["serve.rejected"] += a.Rejected - b.Rejected
		m["serve.problem_cache_hits"] += a.ProblemCacheHits - b.ProblemCacheHits
		m["serve.outcome_hits"] += a.OutcomeHits - b.OutcomeHits
		m["smt.queries"] += a.Queries - b.Queries
		m["smt.cache_hits"] += a.CacheHits - b.CacheHits
		m["smt.contexts"] += a.Contexts - b.Contexts
		m["smt.probes"] += a.Probes - b.Probes
		m["smt.lemma_reuse"] += a.LemmaReuse - b.LemmaReuse
		m["smt.shared_lemmas"] += a.SharedLemmas - b.SharedLemmas
		m["smt.dormant"] += a.Dormant - b.Dormant
		m["optimal.core_pruned"] += a.CorePruned - b.CorePruned
		m["optimal.core_evicted"] += a.CoreEvicted - b.CoreEvicted
		m["optimal.calls"] += a.Collector.OptCalls - b.Collector.OptCalls
		m["optimal.neg_solutions"] += a.Collector.NegSolutions - b.Collector.NegSolutions
		m["lia.fm_scratch"] += a.FMScratch - b.FMScratch
		m["lia.fm_incremental"] += a.FMIncremental - b.FMIncremental
		m["lia.fm_cube_hits"] += a.FMCubeHits - b.FMCubeHits
		m["lia.fm_cap_hits"] += a.FMCapHits - b.FMCapHits
		m["store.hits"] += a.VerdictHits + a.ConsHits - b.VerdictHits - b.ConsHits
		m["store.warm_lemmas"] += a.WarmLemmas - b.WarmLemmas
		m["store.warm_cores"] += a.WarmCores - b.WarmCores
		m["store.appended"] += a.Appended - b.Appended
		m["store.deduped"] += a.Deduped - b.Deduped
		m["store.dropped"] += a.Dropped - b.Dropped
		m["store.flushes"] += a.Flushes - b.Flushes
	}
	m["route.store_hits"] += after.storeHits - before.storeHits
	m["rpc.requests"] += after.rpcRequests - before.rpcRequests
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
