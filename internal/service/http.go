package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	itemsketch "repro"
	"repro/internal/core"
)

// Handler returns the service's HTTP API:
//
//	POST /v1/ingest        {"rows":[[0,2],[1]]}            → {"accepted":n,"shards":{...}}
//	POST /v1/estimate      {"itemsets":[[0,1],[2]]}        → {"estimates":[...],"shards":{...}}
//	POST /v1/mine          {"min_support":0.1,"max_k":3}   → {"results":[...],"shards":{...}}
//	POST /v1/heavyhitters  {"phi":0.2}                     → {"items":[...],"n":N,"source":"...","shards":{...}}
//	POST /v1/checkpoint                                    → {"shards":{...}}
//	POST /v1/kill?shard=N                                  → {"shards":{...}}  (chaos lever)
//	POST /v1/rehome?shard=N&from=M                         → {"rehomed":N,"from":M}
//	GET  /v1/shards/{id}/sketch                            → sketch envelope bytes
//	PUT  /v1/shards/{id}/sketch                            → bootstrap a dead shard from envelope bytes
//	GET  /healthz                                          → per-shard health report
//	GET  /readyz                                           → 200 iff the live quorum is met
//
// GET and PUT on /v1/shards/{id}/sketch are the two halves of the
// replication path: GET streams a live shard's sample as a sketch
// envelope (with its stream length in X-Shard-Seen), and PUT feeds the
// same bytes (and optional X-Shard-Seen request header) to
// BootstrapShard, reviving a dead shard. POST /v1/rehome does both
// sides in-process for single-node operation.
//
// Every response carries the degradation headers (X-Shards-Answered,
// and X-Shards-Missing when any shard is missing) and every JSON body
// — including every error body — carries the "shards" object, so a
// client can always tell a degraded answer from a complete one and a
// total failure from a transient one. Config.RequestTimeout threads a
// deadline into the request context, which EstimateMany observes
// mid-batch.
//
// When Config.Window is set, /v1/estimate and /v1/heavyhitters accept
// "window":true to answer over the trailing window (EstimateWindow /
// HeavyHittersWindow) instead of the whole stream; without a window
// the flag is a 409 (ErrNoWindow).
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/ingest", s.handleIngest)
	mux.HandleFunc("/v1/estimate", s.handleEstimate)
	mux.HandleFunc("/v1/mine", s.handleMine)
	mux.HandleFunc("/v1/heavyhitters", s.handleHeavyHitters)
	mux.HandleFunc("/v1/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("/v1/kill", s.handleKill)
	mux.HandleFunc("/v1/rehome", s.handleRehome)
	mux.HandleFunc("/v1/shards/", s.handleShardSketch)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	return mux
}

// requestContext applies the configured per-request deadline.
func (s *Service) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.RequestTimeout > 0 {
		return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	}
	return r.Context(), func() {}
}

// currentPartial reports the live/dead split outside any query — the
// shards object attached to responses that have no per-query fan-out
// (ingest, checkpoint, admin, errors).
func (s *Service) currentPartial() Partial {
	p := Partial{Total: len(s.shards)}
	for _, sh := range s.shards {
		if sh.State() != Dead {
			p.Answered++
		} else {
			p.Missing = append(p.Missing, sh.id)
		}
	}
	return p
}

// setShardHeaders attaches the degradation headers.
func setShardHeaders(w http.ResponseWriter, p Partial) {
	w.Header().Set("X-Shards-Answered", p.String())
	if len(p.Missing) > 0 {
		ids := make([]string, len(p.Missing))
		for i, id := range p.Missing {
			ids[i] = strconv.Itoa(id)
		}
		w.Header().Set("X-Shards-Missing", strings.Join(ids, ","))
	}
}

// writeJSON emits one JSON response with the degradation headers.
func writeJSON(w http.ResponseWriter, status int, p Partial, body map[string]any) {
	setShardHeaders(w, p)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	body["shards"] = p
	_ = json.NewEncoder(w).Encode(body)
}

// writeError maps err to an HTTP status and emits the error body —
// which still carries the shards object, so no failure response hides
// the degradation state.
func writeError(w http.ResponseWriter, p Partial, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		status = 499 // client closed request
	case errors.Is(err, ErrNoShards), errors.Is(err, ErrShardDead), errors.Is(err, ErrClosed):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrNoWindow):
		status = http.StatusConflict
	case errors.Is(err, itemsketch.ErrInvalidParams), errors.Is(err, itemsketch.ErrWrongItemsetSize):
		status = http.StatusBadRequest
	case errors.Is(err, ErrRetriesExhausted):
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, p, map[string]any{"error": err.Error()})
}

// decodeBody decodes one JSON request body, rejecting unknown fields.
func (s *Service) decodeBody(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		writeJSON(w, http.StatusBadRequest, s.currentPartial(),
			map[string]any{"error": "bad request body: " + err.Error()})
		return false
	}
	return true
}

// requirePost guards the mutating/query endpoints.
func (s *Service) requirePost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, s.currentPartial(),
			map[string]any{"error": "use POST"})
		return false
	}
	return true
}

func (s *Service) handleIngest(w http.ResponseWriter, r *http.Request) {
	if !s.requirePost(w, r) {
		return
	}
	var req struct {
		Rows [][]int `json:"rows"`
	}
	if !s.decodeBody(w, r, &req) {
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	accepted, err := s.Ingest(ctx, req.Rows)
	if err != nil {
		writeError(w, s.currentPartial(), err)
		return
	}
	writeJSON(w, http.StatusOK, s.currentPartial(), map[string]any{"accepted": accepted})
}

func (s *Service) handleEstimate(w http.ResponseWriter, r *http.Request) {
	if !s.requirePost(w, r) {
		return
	}
	var req struct {
		Itemsets [][]int `json:"itemsets"`
		// Window answers over the trailing window (Config.Window) instead
		// of the whole stream.
		Window bool `json:"window"`
	}
	if !s.decodeBody(w, r, &req) {
		return
	}
	ts := make([]itemsketch.Itemset, len(req.Itemsets))
	for i, attrs := range req.Itemsets {
		t, err := itemsketch.NewItemset(attrs...)
		if err != nil {
			writeError(w, s.currentPartial(),
				fmt.Errorf("%w: itemset %d: %v", itemsketch.ErrInvalidParams, i, err))
			return
		}
		if t.MaxAttr() >= s.cfg.NumAttrs {
			writeError(w, s.currentPartial(),
				fmt.Errorf("%w: itemset %d references attribute %d beyond universe %d",
					itemsketch.ErrInvalidParams, i, t.MaxAttr(), s.cfg.NumAttrs))
			return
		}
		ts[i] = t
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	estimate := s.Estimate
	if req.Window {
		estimate = s.EstimateWindow
	}
	ests, p, err := estimate(ctx, ts)
	if err != nil {
		writeError(w, p, err)
		return
	}
	writeJSON(w, http.StatusOK, p, map[string]any{"estimates": ests, "window": req.Window})
}

// minedItemset is the JSON shape of one mining result.
type minedItemset struct {
	Attrs []int   `json:"attrs"`
	Freq  float64 `json:"freq"`
}

func (s *Service) handleMine(w http.ResponseWriter, r *http.Request) {
	if !s.requirePost(w, r) {
		return
	}
	var req struct {
		MinSupport float64 `json:"min_support"`
		MaxK       int     `json:"max_k"`
	}
	if !s.decodeBody(w, r, &req) {
		return
	}
	// Apriori reads max_k ≤ 0 as "up to d" and a min_support ≤ 0 makes
	// every candidate frequent: either lets one request mine the whole
	// lattice, so the network surface accepts neither.
	if !(req.MinSupport > 0 && req.MinSupport <= 1) {
		writeError(w, s.currentPartial(),
			fmt.Errorf("%w: min_support must be in (0,1], got %v", itemsketch.ErrInvalidParams, req.MinSupport))
		return
	}
	if req.MaxK < 1 {
		writeError(w, s.currentPartial(),
			fmt.Errorf("%w: max_k must be at least 1, got %d", itemsketch.ErrInvalidParams, req.MaxK))
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	rs, p, err := s.Mine(ctx, req.MinSupport, req.MaxK)
	if err != nil {
		writeError(w, p, err)
		return
	}
	out := make([]minedItemset, len(rs))
	for i, res := range rs {
		out[i] = minedItemset{Attrs: append([]int{}, res.Items.Attrs()...), Freq: res.Freq}
	}
	writeJSON(w, http.StatusOK, p, map[string]any{"results": out})
}

func (s *Service) handleHeavyHitters(w http.ResponseWriter, r *http.Request) {
	if !s.requirePost(w, r) {
		return
	}
	var req struct {
		Phi float64 `json:"phi"`
		// Window thresholds the decayed recent stream (Config.Window)
		// instead of the whole-stream summary.
		Window bool `json:"window"`
	}
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Phi <= 0 || req.Phi > 1 {
		writeError(w, s.currentPartial(),
			fmt.Errorf("%w: phi must be in (0,1], got %v", itemsketch.ErrInvalidParams, req.Phi))
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	heavy := s.HeavyHitters
	source := s.HeavyHitterSource()
	if req.Window {
		heavy = s.HeavyHittersWindow
		source = "decayed-misra-gries"
	}
	items, n, p, err := heavy(ctx, req.Phi)
	if err != nil {
		writeError(w, p, err)
		return
	}
	if items == nil {
		items = []HeavyHitter{}
	}
	writeJSON(w, http.StatusOK, p, map[string]any{
		"items": items, "n": n, "source": source})
}

func (s *Service) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if !s.requirePost(w, r) {
		return
	}
	if s.cfg.CheckpointDir == "" {
		writeJSON(w, http.StatusConflict, s.currentPartial(),
			map[string]any{"error": "checkpointing is not configured"})
		return
	}
	if err := s.Checkpoint(); err != nil {
		writeError(w, s.currentPartial(), err)
		return
	}
	writeJSON(w, http.StatusOK, s.currentPartial(), map[string]any{"checkpointed": true})
}

func (s *Service) handleKill(w http.ResponseWriter, r *http.Request) {
	if !s.requirePost(w, r) {
		return
	}
	id, err := strconv.Atoi(r.URL.Query().Get("shard"))
	if err != nil || id < 0 || id >= len(s.shards) {
		writeJSON(w, http.StatusBadRequest, s.currentPartial(),
			map[string]any{"error": "kill needs ?shard=<0.." + strconv.Itoa(len(s.shards)-1) + ">"})
		return
	}
	s.KillShard(id)
	writeJSON(w, http.StatusOK, s.currentPartial(), map[string]any{"killed": id})
}

// handleRehome bootstraps dead shard ?shard= from live peer ?from= in
// process — the single-node form of the GET→PUT replication pair.
func (s *Service) handleRehome(w http.ResponseWriter, r *http.Request) {
	if !s.requirePost(w, r) {
		return
	}
	id, err := strconv.Atoi(r.URL.Query().Get("shard"))
	if err != nil || id < 0 || id >= len(s.shards) {
		writeJSON(w, http.StatusBadRequest, s.currentPartial(),
			map[string]any{"error": "rehome needs ?shard=<0.." + strconv.Itoa(len(s.shards)-1) + ">"})
		return
	}
	from, err := strconv.Atoi(r.URL.Query().Get("from"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, s.currentPartial(),
			map[string]any{"error": "rehome needs ?from=<live peer shard>"})
		return
	}
	if err := s.RehomeFromPeer(id, from); err != nil {
		writeError(w, s.currentPartial(), err)
		return
	}
	writeJSON(w, http.StatusOK, s.currentPartial(), map[string]any{"rehomed": id, "from": from})
}

// handleShardSketch is the shard replication endpoint. GET streams one
// shard's current sample as a standard sketch envelope — the
// replication/backfill read path; the snapshot's reservoir is cloned
// first so the envelope encoder never touches a database other queries
// are reading. PUT accepts the same envelope bytes and bootstraps a
// dead shard from them (BootstrapShard), honoring an X-Shard-Seen
// request header as the restored stream-length counter.
func (s *Service) handleShardSketch(w http.ResponseWriter, r *http.Request) {
	rest, ok := strings.CutPrefix(r.URL.Path, "/v1/shards/")
	if !ok {
		http.NotFound(w, r)
		return
	}
	idStr, ok := strings.CutSuffix(rest, "/sketch")
	if !ok {
		http.NotFound(w, r)
		return
	}
	id, err := strconv.Atoi(idStr)
	if err != nil || id < 0 || id >= len(s.shards) {
		writeJSON(w, http.StatusNotFound, s.currentPartial(),
			map[string]any{"error": "no such shard"})
		return
	}
	switch r.Method {
	case http.MethodGet:
		sh := s.shards[id]
		if sh.State() == Dead {
			writeError(w, s.currentPartial(), fmt.Errorf("%w: shard %d", ErrShardDead, id))
			return
		}
		snap := sh.snapshot()
		sk, err := core.SubsampleFromSample(snap.res.Database(), s.cfg.Params)
		if err != nil {
			writeError(w, s.currentPartial(), err)
			return
		}
		setShardHeaders(w, s.currentPartial())
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("X-Shard-Seen", strconv.FormatInt(snap.seen, 10))
		if _, err := itemsketch.MarshalTo(w, sk); err != nil {
			// Headers are gone; all we can do is log through the shard.
			sh.recordFailure(err)
		}
	case http.MethodPut:
		var seen int64
		if h := r.Header.Get("X-Shard-Seen"); h != "" {
			v, err := strconv.ParseInt(h, 10, 64)
			if err != nil || v < 0 {
				writeJSON(w, http.StatusBadRequest, s.currentPartial(),
					map[string]any{"error": "bad X-Shard-Seen header: " + h})
				return
			}
			seen = v
		}
		if err := s.BootstrapShard(id, r.Body, seen); err != nil {
			writeError(w, s.currentPartial(), err)
			return
		}
		writeJSON(w, http.StatusOK, s.currentPartial(), map[string]any{"bootstrapped": id})
	default:
		w.Header().Set("Allow", "GET, PUT")
		writeJSON(w, http.StatusMethodNotAllowed, s.currentPartial(),
			map[string]any{"error": "use GET or PUT"})
	}
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	p := s.currentPartial()
	status := http.StatusOK
	if !s.Ready() {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, p, map[string]any{
		"ready":  s.Ready(),
		"report": s.HealthReport(),
	})
}

func (s *Service) handleReadyz(w http.ResponseWriter, r *http.Request) {
	p := s.currentPartial()
	if !s.Ready() {
		writeJSON(w, http.StatusServiceUnavailable, p,
			map[string]any{"ready": false, "error": ErrNoShards.Error()})
		return
	}
	writeJSON(w, http.StatusOK, p, map[string]any{"ready": true})
}
