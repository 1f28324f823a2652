package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dist"
	"repro/internal/shard"
)

// The stripe-sharded serving surface (-replicas): the coordinator side fans
// /v1/reconstruct requests that the cost model prices cheaper sharded out as
// pair-balanced rank stripes, and the replica side answers POST
// /v1/shard/reconstruct by scoring one stripe with the same fused kernels the
// in-process engines run. Every server exposes the replica endpoint, so a
// fleet of plain `hammerctl serve` processes can be named in another server's
// -replicas list with no extra configuration; stripes run through the
// replica's own deadline admission (sched.DoBudgeted) so shard traffic and
// direct traffic share one worker budget.

// splitReplicas parses the -replicas flag value.
func splitReplicas(v string) []string {
	parts := strings.Split(v, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// localStripe is the coordinator's fallback executor: score the stripe on a
// pooled session and deep-copy the partial off its scratch before releasing
// it. The coordinator runs one request's fallbacks one after another inside
// that request's worker slot; concurrent requests each pull their own
// session.
func (s *server) localStripe(ctx context.Context, spec core.StripeSpec) (core.StripePartial, error) {
	sess := s.stripeSessions.Get().(*core.Session)
	defer s.stripeSessions.Put(sess)
	part, err := sess.ScoreStripe(ctx, spec)
	if err != nil {
		return core.StripePartial{}, err
	}
	return core.StripePartial{
		Lo:   part.Lo,
		Hi:   part.Hi,
		CHS:  append([]float64(nil), part.CHS...),
		Rows: append([]float64(nil), part.Rows...),
	}, nil
}

// reconstructSharded runs one sharded reconstruction inside the scheduler's
// deadline admission, budgeted at the cost model's sharded prediction (the
// quantity ShouldShard just compared against local). The coordinator session
// carries the request's effective options so flatten, radius, and the merge
// epilogue match what a single-node run of the same request would do.
func (s *server) reconstructSharded(ctx context.Context, opts core.Options, in *dist.Dist, deadline time.Time) (rendered, error) {
	predicted, ok := core.PredictShardCost(opts, in.Len(), in.NumBits(), s.coord.NumReplicas())
	if !ok {
		predicted = 0
	}
	var out rendered
	err := s.sch.DoBudgeted(ctx, "sharded:"+core.EngineBlocked, predicted, deadline, func(rctx context.Context) error {
		sess, err := core.NewSession(opts)
		if err != nil {
			return err
		}
		res, err := s.coord.Reconstruct(rctx, sess, in)
		if err != nil {
			return err
		}
		out = renderReconstruct(res)
		return nil
	})
	return out, err
}

// handleShardReconstruct is the replica side: score one stripe of a
// coordinator's fanned-out reconstruction. The stripe runs through the same
// deadline admission as direct requests — predicted at the cost model's
// per-stripe price, budgeted by the coordinator's wire deadline — so a
// replica rejects hopeless stripes up front (504/429) and the coordinator
// falls back to computing them locally.
func (s *server) handleShardReconstruct(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, -1, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	body, ok := readJSONBody(w, r)
	if !ok {
		return
	}
	var req shard.StripeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, -1, fmt.Errorf("stripe request: %w", err))
		return
	}
	spec, err := req.Spec()
	if err != nil {
		writeError(w, http.StatusBadRequest, -1, err)
		return
	}
	// Every valid spec runs the blocked scan, whatever name it arrived
	// under (ScoreStripe rejects the invalid ones).
	engine := core.EngineBlocked
	var deadline time.Time
	if b := req.Budget(); b > 0 {
		deadline = time.Now().Add(b)
	}
	predicted, _ := cost.Active().PredictStripeDuration(engine,
		cost.Workload{Support: spec.Support(), Bits: spec.NumBits, Radius: spec.MaxD}, spec.Pairs())
	var resp shard.StripeResponse
	err = s.sch.DoBudgeted(r.Context(), "stripe:"+engine, predicted, deadline, func(rctx context.Context) error {
		sess := s.stripeSessions.Get().(*core.Session)
		defer s.stripeSessions.Put(sess)
		part, err := sess.ScoreStripe(rctx, spec)
		if err != nil {
			return err
		}
		// Copy off the session scratch before the pool hands it to the next
		// stripe; the encoder below must read stable slices.
		resp = shard.StripeResponse{
			Engine: engine,
			CHS:    append([]float64(nil), part.CHS...),
			Rows:   append([]float64(nil), part.Rows...),
		}
		return nil
	})
	if err != nil {
		writeError(w, statusFor(r, err), -1, err)
		return
	}
	w.Header().Set(engineHeader, engine)
	writeJSON(w, http.StatusOK, resp)
}
