package route

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/rpc"
	"repro/internal/serve"
)

// ServeRPC implements rpc.Handler, putting a binary front on the whole
// fleet: a caller speaking VS3R to the router gets the same key-affine
// routing, failover, and hedging as an HTTP caller, and the request crosses
// to the backend unchanged.
func (r *Router) ServeRPC(ctx context.Context, req rpc.Request) rpc.Response {
	if req.Spec == "" {
		return rpcErrorResponse(http.StatusBadRequest, fmt.Errorf("missing \"spec\""))
	}
	if req.Client == "" {
		req.Client = "rpc"
	}
	r.requests.Add(1)
	ctx, cancel := context.WithTimeout(ctx, r.cfg.RequestTimeout)
	defer cancel()
	res := r.execute(ctx, serve.ProblemKey(req.Spec), req)
	if res.err != nil {
		r.noBackend.Add(1)
		return rpcErrorResponse(http.StatusBadGateway, fmt.Errorf("no live backend: %w", res.err))
	}
	return rpc.Response{Status: res.status, ProblemKey: res.problemKey, Backend: res.backendID, Body: res.body}
}

func rpcErrorResponse(status int, err error) rpc.Response {
	body, _ := json.MarshalIndent(errorResponse{Error: err.Error()}, "", "  ")
	return rpc.Response{Status: status, Body: append(body, '\n')}
}

// Owner returns the URL of the backend that owns key on the ring (ignoring
// health), or "" with no backends. Exported for tests and operational
// tooling that needs to predict placement.
func (r *Router) Owner(key string) string {
	idx := r.ring.owner(key)
	if idx < 0 {
		return ""
	}
	return r.backends[idx].url
}

// HedgeStats returns the lifetime hedge counters: hedges fired at ring
// successors, races the hedge won, and losers cancelled after a win.
func (r *Router) HedgeStats() (fired, won, canceled int64) {
	return r.hedgeFired.Load(), r.hedgeWon.Load(), r.hedgeCanceled.Load()
}
