package route

import (
	"context"
	"errors"
	"net/http"
	"sort"
	"time"

	"repro/internal/rpc"
)

// callResult is one backend's buffered answer to a single verify or
// preconditions request. err is non-nil only for transport failures (the
// failover/hedge-loss signal); an answer with any status (429 shed, 5xx) is
// a result, not an error.
type callResult struct {
	status     int
	problemKey string
	backendID  string
	retryAfter string
	body       []byte
	err        error
}

// errNoRPC is the transport failure of a backend whose VS3R endpoint the
// health sweep has not discovered (yet): it fails over like a dead node.
var errNoRPC = errors.New("route: backend has no VS3R endpoint")

// callOne executes req against b over the backend's persistent VS3R pool.
// Every error — a dead connection, a refused handshake (rpc.ErrNotRPC), an
// undiscovered endpoint — is a transport failure, the failover signal.
func (r *Router) callOne(ctx context.Context, b *backend, req rpc.Request) callResult {
	c := b.rpcClient()
	if c == nil {
		return callResult{err: errNoRPC}
	}
	start := time.Now()
	resp, err := c.Call(ctx, req)
	if err != nil {
		return callResult{err: err}
	}
	r.observeLatency(time.Since(start))
	if resp.Backend != "" {
		id := resp.Backend
		b.serverID.Store(&id)
	}
	return callResult{
		status:     resp.Status,
		problemKey: resp.ProblemKey,
		backendID:  resp.Backend,
		retryAfter: retryAfterHint(resp.Status),
		body:       resp.Body,
	}
}

// retryAfterHint mirrors the Retry-After header a backend's HTTP surface
// sets on 429 (the binary protocol carries status + body only).
func retryAfterHint(status int) string {
	if status == http.StatusTooManyRequests {
		return "1"
	}
	return ""
}

// observeLatency feeds one completed-call latency into the rolling window
// behind the adaptive hedge delay.
func (r *Router) observeLatency(d time.Duration) {
	r.latMu.Lock()
	r.lats[r.latNext] = d
	r.latNext = (r.latNext + 1) % len(r.lats)
	if r.latN < len(r.lats) {
		r.latN++
	}
	r.latMu.Unlock()
}

// hedgeDelay is how long the owner backend gets before the same request is
// fired at its ring successor: the rolling p95 of recent backend latency,
// clamped to [HedgeMin, HedgeMax]. Under 20 samples the estimate is noise,
// so a fixed 25ms stands in.
func (r *Router) hedgeDelay() time.Duration {
	r.latMu.Lock()
	n := r.latN
	sample := make([]time.Duration, n)
	copy(sample, r.lats[:n])
	r.latMu.Unlock()
	if n < 20 {
		return 25 * time.Millisecond
	}
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	p95 := sample[n*95/100]
	if p95 < r.cfg.HedgeMin {
		return r.cfg.HedgeMin
	}
	if p95 > r.cfg.HedgeMax {
		return r.cfg.HedgeMax
	}
	return p95
}

// execute routes one request over cands, the candidate sequence for its
// key (see candidates). It is the one request path: single requests and
// every batch item go through it. With hedging enabled the first two
// candidates race (owner first, successor after the adaptive delay); any
// remaining candidates serve as the sequential failover tail, exactly as
// without hedging. The returned result is terminal: a transport-level total
// failure comes back as err != nil.
func (r *Router) execute(ctx context.Context, cands []int, req rpc.Request) callResult {
	if len(cands) == 0 {
		return callResult{err: errors.New("no backends configured")}
	}
	rest := cands
	var lastErr error
	if r.cfg.Hedge && len(cands) >= 2 {
		res, done := r.raceTwo(ctx, r.backends[cands[0]], r.backends[cands[1]], req)
		if done {
			return res
		}
		lastErr = res.err
		rest = cands[2:] // both racers failed at transport level; fall through
	}
	for _, idx := range rest {
		b := r.backends[idx]
		res := r.callOne(ctx, b, req)
		if res.err == nil {
			b.routed.Add(1)
			return res
		}
		// Transport failure: the backend never produced an answer. Mark it
		// down and rehash to the next node in ring order.
		b.healthy.Store(false)
		b.failovers.Add(1)
		r.failovers.Add(1)
		lastErr = res.err
		if ctx.Err() != nil {
			break
		}
	}
	return callResult{err: lastErr}
}

// raceTwo runs the hedged race between the owner backend and its ring
// successor. The first transport-successful answer wins and is the only one
// forwarded (strict single-count: the loser's context is cancelled, which
// the backend treats as a client disconnect — its run aborts and its verdict
// is discarded unseen). Returns done=false only when both sides failed at
// the transport level, handing the key to the sequential failover tail.
func (r *Router) raceTwo(ctx context.Context, owner, succ *backend, req rpc.Request) (callResult, bool) {
	type raceRes struct {
		res   callResult
		b     *backend
		hedge bool
	}
	rctx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()
	resc := make(chan raceRes, 2)
	launch := func(b *backend, hedge bool) {
		go func() {
			resc <- raceRes{res: r.callOne(rctx, b, req), b: b, hedge: hedge}
		}()
	}
	launch(owner, false)

	timer := time.NewTimer(r.hedgeDelay())
	defer timer.Stop()
	inflight := 1
	fired := false
	select {
	case rr := <-resc:
		inflight--
		if rr.res.err == nil {
			rr.b.routed.Add(1)
			return rr.res, true
		}
		rr.b.healthy.Store(false)
		rr.b.failovers.Add(1)
		r.failovers.Add(1)
	case <-timer.C:
		r.hedgeFired.Add(1)
		launch(succ, true)
		fired = true
		inflight = 2
	}
	if !fired {
		// The owner failed before the hedge delay elapsed; no race happened.
		// The successor is simply the next sequential candidate.
		res := r.callOne(rctx, succ, req)
		if res.err == nil {
			succ.routed.Add(1)
			return res, true
		}
		succ.healthy.Store(false)
		succ.failovers.Add(1)
		r.failovers.Add(1)
		return callResult{err: res.err}, false
	}
	var lastErr error
	for inflight > 0 {
		rr := <-resc
		inflight--
		if rr.res.err == nil {
			if rr.hedge {
				r.hedgeWon.Add(1)
			}
			if inflight > 0 {
				// cancelAll (deferred) aborts the slower side; its eventual
				// answer lands in the buffered channel and is dropped.
				r.hedgeCanceled.Add(1)
			}
			rr.b.routed.Add(1)
			return rr.res, true
		}
		lastErr = rr.res.err
		rr.b.healthy.Store(false)
		rr.b.failovers.Add(1)
		r.failovers.Add(1)
	}
	return callResult{err: lastErr}, false
}
