package route

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/rpc"
	"repro/internal/serve"
)

// handleBatch splits one client batch by backend affinity, fans each group
// out over its backend's VS3R pool, and merges the per-item results into one
// NDJSON stream with the client's original item indices. Splitting by
// affinity is the point: every item still lands on the backend that is warm
// for its skeleton, so a bulk client pays one HTTP round trip while keeping
// the per-key cache economics of single routed requests.
//
// Failover is per item: when a backend dies partway through its group
// (connection refused or cut), the items it never answered are re-grouped
// over the remaining live backends and re-sent; only items no live backend
// can serve come back as 502 results. Items that already produced a result
// are never re-run.
func (r *Router) handleBatch(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, errors.New("use POST"))
		return
	}
	var batch serve.BatchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxProxyBody)).Decode(&batch); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid request body: %w", err))
		return
	}
	if len(batch.Items) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("empty \"items\""))
		return
	}
	r.batches.Add(1)
	r.batchItems.Add(int64(len(batch.Items)))
	client := serve.ClientKey(req)

	ctx, cancel := context.WithTimeout(req.Context(), r.cfg.RequestTimeout)
	defer cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	var wmu sync.Mutex
	enc := json.NewEncoder(w)
	emit := func(res serve.BatchResult) {
		wmu.Lock()
		defer wmu.Unlock()
		_ = enc.Encode(res)
		if flusher != nil {
			flusher.Flush()
		}
	}

	maxAttempts := len(r.backends) + 1
	var wg sync.WaitGroup
	var send func(indices []int, attempt int)

	// fail emits terminal 502 results for items no backend could serve.
	fail := func(indices []int, err error) {
		r.noBackend.Add(int64(len(indices)))
		for _, gi := range indices {
			emit(serve.BatchResult{
				Index:  gi,
				Status: http.StatusBadGateway,
				Error:  fmt.Sprintf("no live backend: %v", err),
			})
		}
	}

	// send groups the given (global) item indices by their current best
	// backend and sends each group; unanswered items recurse with the next
	// attempt.
	send = func(indices []int, attempt int) {
		if attempt >= maxAttempts {
			fail(indices, errors.New("failover attempts exhausted"))
			return
		}
		groups := map[int][]int{}
		for _, gi := range indices {
			cands := r.candidates(serve.ProblemKey(batch.Items[gi].Spec))
			if len(cands) == 0 {
				fail([]int{gi}, errors.New("no backends configured"))
				continue
			}
			groups[cands[0]] = append(groups[cands[0]], gi)
		}
		for bidx, group := range groups {
			wg.Add(1)
			go func(bidx int, group []int) {
				defer wg.Done()
				remaining := r.rpcGroup(ctx, r.backends[bidx], client, &batch, group, emit)
				if len(remaining) == 0 {
					return
				}
				r.backends[bidx].failovers.Add(int64(len(remaining)))
				r.failovers.Add(int64(len(remaining)))
				if ctx.Err() != nil {
					fail(remaining, ctx.Err())
					return
				}
				send(remaining, attempt+1)
			}(bidx, group)
		}
	}

	all := make([]int, len(batch.Items))
	for i := range all {
		all[i] = i
	}
	send(all, 0)
	wg.Wait()
}

// rpcGroup sends one affinity group's items as individual streams over the
// backend's persistent multiplexed rpc connection. It returns the global
// indices that failed at the transport level (the failover set) and marks
// the backend down when any did.
func (r *Router) rpcGroup(ctx context.Context, b *backend, client string, batch *serve.BatchRequest, group []int, emit func(serve.BatchResult)) []int {
	c := b.rpcClient()
	if c == nil {
		b.healthy.Store(false)
		return group
	}
	workers := min(16, len(group))
	var (
		mu      sync.Mutex
		pending []int
	)
	indices := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for gi := range indices {
				item := batch.Items[gi]
				resp, err := c.Call(ctx, rpc.Request{
					Kind:      rpc.KindVerify,
					Method:    item.Method,
					TimeoutMS: item.TimeoutMS,
					Client:    client,
					Spec:      item.Spec,
				})
				if err != nil {
					mu.Lock()
					pending = append(pending, gi)
					mu.Unlock()
					continue
				}
				b.routed.Add(1)
				emit(rpcBatchResult(gi, resp))
			}
		}()
	}
	for _, gi := range group {
		indices <- gi
	}
	close(indices)
	wg.Wait()
	if len(pending) > 0 && ctx.Err() == nil {
		b.healthy.Store(false)
	}
	return pending
}

// rpcBatchResult maps one rpc response onto the NDJSON per-item result
// shape. A success or aborted body is a serve.VerifyResponse; error-shaped
// bodies ({"error": ...}) carry the message a standalone request would have.
func rpcBatchResult(gi int, resp rpc.Response) serve.BatchResult {
	var full struct {
		serve.VerifyResponse
		Error string `json:"error"`
	}
	_ = json.Unmarshal(resp.Body, &full)
	res := serve.BatchResult{Index: gi, Status: resp.Status, ProblemKey: resp.ProblemKey}
	if full.Error != "" {
		res.Error = full.Error
		return res
	}
	res.OK = resp.Status == http.StatusOK
	v := full.VerifyResponse
	res.Verify = &v
	return res
}
