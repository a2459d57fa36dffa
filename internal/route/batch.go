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

// handleBatch runs every item of one client batch through execute, the same
// placement, ring-order failover and hedging a single /v1/verify request
// gets, and streams the per-item results as NDJSON (one JSON object per
// line) with the client's original item indices. A bulk client pays one HTTP
// round trip while every item still lands on the backend that is warm for
// its skeleton.
//
// Items are grouped by their placed owner, and one batch keeps at most the
// owner's session-pool size (its batch width) in flight there: the rule the
// backend's own batch handler uses, so a batch never overruns the backend's
// admission queue and gets its own items shed. An item whose owner fails at
// the transport level fails over inside execute; only items no live backend
// can serve come back as 502 results. Every item produces exactly one
// result.
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

	// Place every item once; its candidate order (which names every
	// backend, so it is never empty) travels with it into execute.
	cands := make([][]int, len(batch.Items))
	groups := map[int][]int{}
	for i, item := range batch.Items {
		cands[i] = r.candidates(serve.ProblemKey(item.Spec))
		groups[cands[i][0]] = append(groups[cands[i][0]], i)
	}

	var wg sync.WaitGroup
	for owner, group := range groups {
		width := int(max(1, r.backends[owner].pool.Load())) // 1 until X-VS3-Pool is seen
		indices := make(chan int, len(group))
		for _, i := range group {
			indices <- i
		}
		close(indices)
		for range min(width, len(group)) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range indices {
					item := batch.Items[i]
					res := r.execute(ctx, cands[i], rpc.Request{
						Kind: rpc.KindVerify, Method: item.Method, TimeoutMS: item.TimeoutMS, Client: client, Spec: item.Spec,
					})
					if res.err != nil {
						r.noBackend.Add(1)
					}
					emit(batchResult(i, res))
				}
			}()
		}
	}
	wg.Wait()
}

// batchResult maps one item's execute result onto the NDJSON per-item
// result shape. A success or aborted body is a serve.VerifyResponse;
// error-shaped bodies ({"error": ...}) carry the message a standalone
// request would have, and a total transport failure is a 502.
func batchResult(i int, res callResult) serve.BatchResult {
	if res.err != nil {
		return serve.BatchResult{Index: i, Status: http.StatusBadGateway, Error: fmt.Sprintf("no live backend: %v", res.err)}
	}
	var full struct {
		serve.VerifyResponse
		Error string `json:"error"`
	}
	_ = json.Unmarshal(res.body, &full)
	out := serve.BatchResult{Index: i, Status: res.status, ProblemKey: res.problemKey}
	if full.Error != "" {
		out.Error = full.Error
		return out
	}
	out.OK = res.status == http.StatusOK
	v := full.VerifyResponse
	out.Verify = &v
	return out
}
