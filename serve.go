package phishinghook

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/phishinghook/phishinghook/internal/cluster"
	"github.com/phishinghook/phishinghook/internal/ethrpc"
	"github.com/phishinghook/phishinghook/internal/monitor"
	"github.com/phishinghook/phishinghook/internal/obs"
)

// The scoring wire format lives in internal/cluster, shared by replica,
// router and client; these aliases keep it on the public surface.
type (
	// ScoreRequest is the POST /score payload: one bytecode, a batch, or
	// both ([bytecode, bytecodes...]).
	ScoreRequest = cluster.ScoreRequest
	// ScoreVerdict is the wire form of a Verdict or TxVerdict.
	ScoreVerdict = cluster.Verdict
	// ScoreResponse is the /score and /score/tx reply.
	ScoreResponse = cluster.ScoreResponse
	// TxScoreItem is one transaction to judge: hex calldata plus
	// (optionally) the callee's hex bytecode.
	TxScoreItem = cluster.TxScoreItem
	// TxScoreRequest is the POST /score/tx payload: one tx, a batch, or both.
	TxScoreRequest = cluster.TxScoreRequest
)

func toWire(v Verdict) ScoreVerdict {
	return ScoreVerdict{
		Label:           v.Label.String(),
		Phishing:        v.IsPhishing(),
		Confidence:      v.Confidence,
		Model:           v.ModelName,
		ModelVersion:    v.ModelVersion,
		DeadCodeRatio:   v.DeadCodeRatio,
		ScoreDivergence: v.ScoreDivergence,
		EvasionSuspect:  v.EvasionSuspect,
	}
}

func txToWire(v TxVerdict) ScoreVerdict {
	label := Benign
	if v.Phishing {
		label = Phishing
	}
	return ScoreVerdict{
		Label:           label.String(),
		Phishing:        v.Phishing,
		Confidence:      v.Confidence,
		Model:           v.Model,
		ModelVersion:    v.Version,
		Modality:        "tx",
		PayloadProb:     v.PayloadProb,
		CodeProb:        v.CodeProb,
		DeadCodeRatio:   v.DeadCodeRatio,
		ScoreDivergence: v.ScoreDivergence,
		EvasionSuspect:  v.EvasionSuspect,
	}
}

// ScoreBackend is the surface NewScoreHandler serves: both *Detector (one
// immutable model for the life of the process) and *Swappable (the lifecycle
// handle, hot-swappable with a shadow challenger) satisfy it.
type ScoreBackend interface {
	ScoreBatch(ctx context.Context, codes [][]byte) ([]Verdict, error)
	ModelName() string
	FeatureDim() int
	CacheStats() (hits, misses uint64)
	ScoreCount() uint64
}

// ServeOption configures NewScoreHandler.
type ServeOption func(*serveState)

// WithWatcher attaches a Watchtower watcher so /metrics and /healthz
// ("monitor") expose its pipeline counters and its fetch plane's
// per-endpoint series alongside the detector's.
func WithWatcher(w *Watcher) ServeOption {
	return attach(slotWatcher, "monitor", func() any { return w.Stats() }, func(m *obs.Writer) {
		writeMonitorSeries(m, w.Stats())
		writeEndpointSeries(m, w.Endpoints())
	})
}

// WithBackfill attaches a backfill scanner so /metrics and /healthz
// ("backfill") expose its pipeline counters, per-endpoint fetch-plane series
// and per-shard cursors while the range scan runs.
func WithBackfill(b *Backfill) ServeOption {
	return attach(slotBackfill, "backfill", func() any { return b.Stats() }, func(m *obs.Writer) {
		s := b.Stats()
		writeMonitorSeries(m, s.Stats)
		writeEndpointSeries(m, s.Endpoints)
		writeShardSeries(m, s.Shards)
	})
}

// WithPprof mounts the net/http/pprof endpoints on the score mux:
//
//	GET /debug/pprof/           — profile index
//	GET /debug/pprof/profile    — 30s CPU profile
//	GET /debug/pprof/heap, goroutine, allocs, block, mutex, threadcreate
//	GET /debug/pprof/cmdline, symbol, trace
//
// Off by default: profiles expose internals (command line, memory
// contents), so only enable it on operator-facing listeners. With it on, a
// live watcher can be profiled without redeploying:
//
//	go tool pprof http://host:port/debug/pprof/profile
func WithPprof() ServeOption {
	return func(s *serveState) { s.pprof = true }
}

// WithLifecycle attaches a lifecycle manager, mounting the admin surface
// that drives the champion/challenger flow at runtime:
//
//	GET  /admin/versions — store contents + live champion/challenger
//	POST /admin/reload   — re-read the store manifest and sync the handle
//	                       (hot-swap a new champion, install a challenger)
//	POST /admin/promote  — flip the live challenger into the champion slot
//
// The handler should be serving the manager's Handle() so admin actions and
// scoring observe the same state. Like pprof, the admin surface belongs on
// operator-facing listeners only.
func WithLifecycle(lc *Lifecycle) ServeOption {
	return func(s *serveState) { s.lifecycle = lc }
}

// WithRetrainer exposes a drift retrainer's counters on /metrics and
// /healthz ("retrainer") alongside the serving stats.
func WithRetrainer(r *Retrainer) ServeOption {
	return attach(slotRetrainer, "retrainer", func() any { return r.Stats() }, func(m *obs.Writer) {
		s := r.Stats()
		m.Metric("phishinghook_retrainer_observed_total", "Scores observed by the drift retrainer.", obs.Counter, float64(s.Observed))
		m.Metric("phishinghook_retrainer_checks_total", "Drift evaluations performed.", obs.Counter, float64(s.Checks))
		m.Metric("phishinghook_retrainer_triggers_total", "Drift triggers fired.", obs.Counter, float64(s.Triggers))
		m.Metric("phishinghook_retrainer_retrains_total", "Retraining rounds completed.", obs.Counter, float64(s.Retrains))
		m.Metric("phishinghook_retrainer_train_errors_total", "Retraining rounds failed.", obs.Counter, float64(s.TrainErrors))
		m.Metric("phishinghook_retrainer_last_psi", "Most recent PSI between reference and live scores.", obs.Gauge, s.LastPSI)
		m.Metric("phishinghook_retrainer_last_ks_p", "Most recent two-sample KS p-value.", obs.Gauge, s.LastKSP)
	})
}

// WithTxScorer attaches a transaction scorer (NewFusedTxScorer, or any
// TxScorer), mounting the second modality's scoring surface:
//
//	POST /score/tx — {"tx": {"calldata": "0x..", "code": "0x.."}} and/or
//	                 {"txs": [...]} → fused Modality="tx" verdicts
func WithTxScorer(ts TxScorer) ServeOption {
	return func(s *serveState) { s.txScorer = ts }
}

// WithTxWatcher attaches a transaction watcher so /metrics and /healthz
// ("tx_monitor") expose its stream counters (phishinghook_tx_* series) and
// its fetch plane's per-endpoint series alongside the contract-side state,
// and mounts the /admin/poison quarantine surface.
func WithTxWatcher(w *TxWatcher) ServeOption {
	return func(s *serveState) {
		s.parts[slotTxWatcher] = part{"tx_monitor", func() any { return w.Stats() }, func(m *obs.Writer) {
			writeTxSeries(m, w.Stats())
			writeEndpointSeries(m, w.Endpoints())
		}}
		s.poison = w
	}
}

// WithClusterRole labels this process's place in the scoring cluster —
// "replica" when fronted by a `phishinghook route` ring, "standalone" (the
// default) otherwise. The role is reported on /healthz and /readyz so ring
// tooling and operators can tell the topologies apart. (The router reports
// "router" from its own handler in internal/cluster.)
func WithClusterRole(role string) ServeOption {
	return func(s *serveState) {
		if role != "" {
			s.role = role
		}
	}
}

// The attachment slots, in /metrics order. A family name may appear only
// once in a scrape and the obs.Writer keeps the first offer, so this order
// decides who owns a shared family: the watcher's pipeline and endpoint
// series win over the backfill's, and both over the tx watcher's plane.
const (
	slotAdversary = iota
	slotLifecycle
	slotRetrainer
	slotWatcher
	slotBackfill
	slotTxWatcher
	numSlots
)

// part is one attached component: its /healthz key and snapshot (none when
// key is empty) and its /metrics families.
type part struct {
	key     string
	stats   func() any
	metrics func(*obs.Writer)
}

func attach(slot int, key string, stats func() any, metrics func(*obs.Writer)) ServeOption {
	return func(s *serveState) { s.parts[slot] = part{key, stats, metrics} }
}

type serveState struct {
	parts     [numSlots]part
	txScorer  TxScorer
	poison    *TxWatcher
	lifecycle *Lifecycle
	pprof     bool
	role      string
	started   time.Time
}

// NewScoreHandler exposes a scoring backend — a *Detector, or a *Swappable
// lifecycle handle — over HTTP:
//
//	POST /score   — {"bytecode": "0x.."} and/or {"bytecodes": ["0x..", ...]}
//	GET  /healthz — liveness + model + uptime + cache/score stats
//	GET  /metrics — Prometheus text format (detector + monitor + lifecycle)
//	POST /admin/* — champion/challenger flow, only when WithLifecycle is given
//	GET  /debug/pprof/* — live profiling, only when WithPprof is given
//
// Scoring runs on the backend's worker pool and shares its sharded LRU
// bytecode→score cache, so a handler is safe under heavy concurrent
// traffic. Serving a Swappable additionally means the model can be
// hot-swapped (POST /admin/reload, /admin/promote) without dropping an
// in-flight request.
func NewScoreHandler(d ScoreBackend, opts ...ServeOption) http.Handler {
	state := &serveState{started: time.Now(), role: "standalone"}
	for _, opt := range opts {
		opt(state)
	}
	if as, ok := d.(interface{ AdversaryStats() AdversaryStats }); ok {
		state.parts[slotAdversary] = part{metrics: func(m *obs.Writer) { writeAdversarySeries(m, as.AdversaryStats()) }}
	}
	if sw, ok := d.(*Swappable); ok {
		state.parts[slotLifecycle] = part{"lifecycle", func() any { return sw.SwapStats() }, func(m *obs.Writer) { writeLifecycleMetrics(m, sw.SwapStats()) }}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/score", func(w http.ResponseWriter, r *http.Request) {
		req, ok := cluster.DecodeScoreRequest(w, r)
		if !ok {
			return
		}
		t0 := time.Now()
		verdicts, err := d.ScoreBatch(r.Context(), req.Codes)
		if err != nil {
			cluster.WriteError(w, http.StatusInternalServerError, "score: %v", err)
			return
		}
		out := make([]ScoreVerdict, len(verdicts))
		for i, v := range verdicts {
			out[i] = toWire(v)
		}
		cluster.WriteScoreResponse(w, out, req.Single, t0)
	})
	if state.txScorer != nil {
		mux.HandleFunc("/score/tx", func(w http.ResponseWriter, r *http.Request) {
			serveTxScore(w, r, state.txScorer)
		})
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		hits, misses := d.CacheStats()
		body := map[string]any{
			"status":         "ok",
			"role":           state.role,
			"model":          d.ModelName(),
			"feature_dim":    d.FeatureDim(),
			"cache_hits":     hits,
			"cache_misses":   misses,
			"scores":         d.ScoreCount(),
			"uptime_seconds": time.Since(state.started).Seconds(),
		}
		for _, p := range state.parts {
			if p.key != "" {
				body[p.key] = p.stats()
			}
		}
		cluster.WriteJSON(w, http.StatusOK, body)
	})
	// Readiness is distinct from liveness: /healthz answers 200 as long as
	// the process is up, while /readyz flips unready whenever the backend is
	// momentarily unfit to score — no champion deployed yet, or a lifecycle
	// reload/promote mid-swap. A cluster's rolling promote gates each step
	// on the previous replica's /readyz returning 200.
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		reason := ""
		if sw, ok := d.(*Swappable); ok && !sw.Deployed() {
			reason = "no champion deployed"
		}
		if state.lifecycle != nil && state.lifecycle.Busy() {
			reason = "model swap in progress"
		}
		if reason != "" {
			cluster.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "role": state.role, "reason": reason})
			return
		}
		cluster.WriteJSON(w, http.StatusOK, map[string]any{"ready": true, "role": state.role})
	})
	mux.Handle("/metrics", obs.Handler(func(m *obs.Writer) {
		hits, misses := d.CacheStats()
		m.Metric("phishinghook_uptime_seconds", "Seconds since the handler started.", obs.Gauge, time.Since(state.started).Seconds())
		m.Metric("phishinghook_scores_total", "Bytecodes scored by the detector.", obs.Counter, float64(d.ScoreCount()))
		m.Metric("phishinghook_feature_cache_hits_total", "Feature-cache hits.", obs.Counter, float64(hits))
		m.Metric("phishinghook_feature_cache_misses_total", "Feature-cache misses.", obs.Counter, float64(misses))
		for _, p := range state.parts {
			if p.metrics != nil {
				p.metrics(m)
			}
		}
	}))
	if state.lifecycle != nil {
		mountAdmin(mux, state.lifecycle)
	}
	if state.poison != nil {
		mountPoisonAdmin(mux, state.poison)
	}
	if state.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// serveTxScore handles POST /score/tx: decode the single+batch request,
// fuse-score each (calldata, code) pair, and answer Modality="tx" verdicts
// in request order.
func serveTxScore(w http.ResponseWriter, r *http.Request, ts TxScorer) {
	req, ok := cluster.DecodeTxScoreRequest(w, r)
	if !ok {
		return
	}
	t0 := time.Now()
	out := make([]ScoreVerdict, len(req.Items))
	for i := range req.Items {
		v, err := ts.ScoreTx(r.Context(), req.Calldata[i], req.Code[i])
		if err != nil {
			cluster.WriteError(w, http.StatusInternalServerError, "score tx %d: %v", i, err)
			return
		}
		out[i] = txToWire(v)
	}
	cluster.WriteScoreResponse(w, out, req.Single, t0)
}

// mountAdmin wires the champion/challenger admin surface onto the mux.
func mountAdmin(mux *http.ServeMux, lc *Lifecycle) {
	liveState := func() map[string]any {
		champ, _ := lc.Handle().Champion()
		chal, _, hasChal := lc.Handle().Challenger()
		body := map[string]any{"champion": champ}
		if hasChal {
			body["challenger"] = chal
		}
		return body
	}
	mux.HandleFunc("/admin/versions", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			cluster.WriteError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		body := liveState()
		body["versions"] = lc.Versions()
		cluster.WriteJSON(w, http.StatusOK, body)
	})
	mux.HandleFunc("/admin/reload", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			cluster.WriteError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		changed, err := lc.Reload()
		if err != nil {
			cluster.WriteError(w, http.StatusInternalServerError, "reload: %v", err)
			return
		}
		body := liveState()
		body["changed"] = changed
		cluster.WriteJSON(w, http.StatusOK, body)
	})
	mux.HandleFunc("/admin/promote", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			cluster.WriteError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		id, err := lc.Promote()
		if err != nil {
			// No challenger is a state conflict; anything else (e.g. a
			// manifest write failure) is a server fault.
			status := http.StatusInternalServerError
			if _, _, ok := lc.Handle().Challenger(); !ok {
				status = http.StatusConflict
			}
			cluster.WriteError(w, status, "promote: %v", err)
			return
		}
		body := liveState()
		body["promoted"] = id
		cluster.WriteJSON(w, http.StatusOK, body)
	})
}

// writeAdversarySeries renders the serving-time evasion telemetry.
func writeAdversarySeries(m *obs.Writer, s AdversaryStats) {
	m.Metric("phishinghook_adversary_scored_total", "Verdicts served with evasion telemetry.", obs.Counter, float64(s.Scored))
	m.Metric("phishinghook_adversary_suspects_total", "Verdicts flagged evasion-suspect.", obs.Counter, float64(s.Suspects))
	m.Metric("phishinghook_adversary_proxies_total", "EIP-1167 minimal proxies scored.", obs.Counter, float64(s.Proxies))
	m.Metric("phishinghook_adversary_mean_dead_ratio", "Mean dead-code ratio over telemetry-scored verdicts.", obs.Gauge, s.MeanDeadRatio)
	m.Metric("phishinghook_adversary_mean_divergence", "Mean raw-vs-canonical score divergence over telemetry-scored verdicts.", obs.Gauge, s.MeanDivergence)
}

// writeTxSeries renders the transaction-stream counters.
func writeTxSeries(m *obs.Writer, s TxWatcherStats) {
	m.Metric("phishinghook_tx_cursor_block", "Last block whose visible txs are all judged.", obs.Gauge, float64(s.Cursor))
	m.Metric("phishinghook_tx_polls_total", "Pending-tx feed polls performed.", obs.Counter, float64(s.Polls))
	m.Metric("phishinghook_tx_seen_total", "Transactions delivered by the feed.", obs.Counter, float64(s.TxsSeen))
	m.Metric("phishinghook_tx_scored_total", "Transactions run through the fused scorer.", obs.Counter, float64(s.TxsScored))
	m.Metric("phishinghook_tx_dedup_hits_total", "Feed replays skipped as already judged.", obs.Counter, float64(s.DedupHits))
	m.Metric("phishinghook_tx_alerts_total", "Transaction alerts emitted.", obs.Counter, float64(s.Alerts))
	m.Metric("phishinghook_tx_poisoned_total", "Transactions abandoned after repeated score failures.", obs.Counter, float64(s.Poisoned))
	m.Metric("phishinghook_tx_errors_total", "RPC/score/sink errors on the tx stream.", obs.Counter, float64(s.Errors))
	m.Metric("phishinghook_tx_feed_reopens_total", "Pending-tx filter reinstalls after loss.", obs.Counter, float64(s.FeedReopens))
	m.Metric("phishinghook_tx_code_cache_hits_total", "Callee-bytecode cache hits.", obs.Counter, float64(s.CodeCacheHits))
	m.Metric("phishinghook_tx_code_cache_misses_total", "Callee-bytecode cache misses.", obs.Counter, float64(s.CodeCacheMisses))
	m.Quantiles("phishinghook_tx_score_latency_ms", "Fused tx score latency quantile upper bounds.", s.ScoreP50MS, s.ScoreP99MS)
	m.Info("phishinghook_tx_model_version", "Lifecycle version behind the most recent fused score.", "version", s.ModelVersion)
}

// writeMonitorSeries renders the shared ingestion-pipeline counters — the
// same series whether a live watcher or a backfill drives the pipeline.
func writeMonitorSeries(m *obs.Writer, s WatcherStats) {
	m.Metric("phishinghook_monitor_cursor_block", "Last fully scored block.", obs.Gauge, float64(s.Cursor))
	m.Metric("phishinghook_monitor_polls_total", "Head polls performed.", obs.Counter, float64(s.Polls))
	m.Metric("phishinghook_monitor_blocks_seen_total", "Blocks scanned.", obs.Counter, float64(s.BlocksSeen))
	m.Metric("phishinghook_monitor_contracts_seen_total", "Deployments observed.", obs.Counter, float64(s.ContractsSeen))
	m.Metric("phishinghook_monitor_contracts_scored_total", "Deployments scored.", obs.Counter, float64(s.ContractsScored))
	m.Metric("phishinghook_monitor_dedup_hits_total", "Deployments skipped as bytecode duplicates.", obs.Counter, float64(s.DedupHits))
	m.Metric("phishinghook_monitor_alerts_total", "Alerts emitted.", obs.Counter, float64(s.Alerts))
	m.Metric("phishinghook_monitor_dropped_total", "Deployments shed under the drop policy.", obs.Counter, float64(s.Dropped))
	m.Metric("phishinghook_monitor_poisoned_total", "Bytecodes abandoned after repeated score failures.", obs.Counter, float64(s.Poisoned))
	m.Metric("phishinghook_monitor_errors_total", "RPC/registry/sink errors.", obs.Counter, float64(s.Errors))
	m.Metric("phishinghook_monitor_queue_depth", "Score-queue occupancy.", obs.Gauge, float64(s.QueueDepth))
	m.Metric("phishinghook_monitor_queue_capacity", "Score-queue bound.", obs.Gauge, float64(s.QueueCap))
	m.Quantiles("phishinghook_monitor_score_latency_ms", "Score latency quantile upper bounds.", s.ScoreP50MS, s.ScoreP99MS)
	m.Info("phishinghook_monitor_model_version", "Lifecycle version of the most recent score.", "version", s.ModelVersion)
}

// writeEndpointSeries renders an ingestion fetch plane's per-endpoint
// scheduler state as the phishinghook_rpc_endpoint_* families.
func writeEndpointSeries(m *obs.Writer, eps []EndpointStats) {
	ethrpc.WriteEndpointSeries(m, "phishinghook_rpc_endpoint_", "endpoint", eps)
}

// writeShardSeries renders backfill shard progress.
func writeShardSeries(m *obs.Writer, shards []monitor.ShardStats) {
	series := func(name, help string, value func(monitor.ShardStats) float64) {
		m.Family(name, help, obs.Gauge, "shard", len(shards), func(i int) (string, float64) { return strconv.Itoa(i), value(shards[i]) })
	}
	series("phishinghook_backfill_shard_cursor", "Last fully scored block per shard.",
		func(s monitor.ShardStats) float64 { return float64(s.Cursor) })
	series("phishinghook_backfill_shard_done", "1 once the shard finished its range.",
		func(s monitor.ShardStats) float64 {
			if s.Done {
				return 1
			}
			return 0
		})
	series("phishinghook_backfill_shard_remaining_blocks", "Blocks left to scan per shard.",
		func(s monitor.ShardStats) float64 { return float64(s.To - s.Cursor) })
}

// writeLifecycleMetrics renders the Swappable's per-version counters and
// shadow divergence — the champion/challenger observability the admin flow
// is steered by.
func writeLifecycleMetrics(m *obs.Writer, s SwapStats) {
	m.Info("phishinghook_champion_info", "Live champion model version.", "version", s.Champion)
	m.Info("phishinghook_challenger_info", "Live shadow challenger model version.", "version", s.Challenger)
	m.Metric("phishinghook_model_swaps_total", "Model hot-swaps performed on the serving handle.", obs.Counter, float64(s.Swaps))
	series := func(name, help string, typ obs.Type, value func(VersionStats) float64) {
		m.Family(name, help, typ, "version", len(s.Versions), func(i int) (string, float64) { return s.Versions[i].Version, value(s.Versions[i]) })
	}
	series("phishinghook_version_scored_total", "Scores served per model version.", obs.Counter,
		func(v VersionStats) float64 { return float64(v.Scored) })
	series("phishinghook_version_flagged_total", "Phishing verdicts per model version.", obs.Counter,
		func(v VersionStats) float64 { return float64(v.Flagged) })
	series("phishinghook_version_shadow_scored_total", "Shadow (challenger) scores per model version.", obs.Counter,
		func(v VersionStats) float64 { return float64(v.ShadowScored) })
	series("phishinghook_version_precision_proxy", "High-confidence share of flags per version (ground-truth-free precision indicator).", obs.Gauge,
		func(v VersionStats) float64 { return v.PrecisionProxy })
	m.Metric("phishinghook_shadow_compared_total", "Deployments scored by both champion and challenger.", obs.Counter, float64(s.Shadow.Compared))
	m.Metric("phishinghook_shadow_disagreements_total", "Champion/challenger label disagreements.", obs.Counter, float64(s.Shadow.Disagreements))
	m.Metric("phishinghook_shadow_mean_abs_delta", "Mean |P_champion - P_challenger| over compared traffic.", obs.Gauge, s.Shadow.MeanAbsDelta)
	m.Metric("phishinghook_shadow_dropped_total", "Shadow replays shed on a full queue.", obs.Counter, float64(s.Shadow.Dropped))
	m.Metric("phishinghook_shadow_errors_total", "Challenger score failures.", obs.Counter, float64(s.Shadow.Errors))
}

// mountPoisonAdmin wires the tx quarantine's operator surface onto the mux:
//
//	GET  /admin/poison                    — the quarantined txs (judged after
//	                                        exhausting score retries, never
//	                                        alerted) with their last errors
//	POST /admin/poison {"action":"drain"} — retry every entry against the
//	                                        current scorer/plane; recovered
//	                                        txs alert (their first time) and
//	                                        leave the set
func mountPoisonAdmin(mux *http.ServeMux, tw *TxWatcher) {
	mux.HandleFunc("/admin/poison", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			entries := tw.PoisonList()
			cluster.WriteJSON(w, http.StatusOK, map[string]any{"pending": len(entries), "entries": entries})
		case http.MethodPost:
			var req struct {
				Action string `json:"action"`
			}
			if r.Body != nil {
				_ = json.NewDecoder(r.Body).Decode(&req)
			}
			if req.Action == "" {
				req.Action = r.URL.Query().Get("action")
			}
			switch req.Action {
			case "", "drain", "retry":
				res := tw.DrainPoison(r.Context())
				cluster.WriteJSON(w, http.StatusOK, map[string]any{"drain": res, "pending": len(tw.PoisonList())})
			default:
				cluster.WriteError(w, http.StatusBadRequest, "unknown poison action %q (want drain)", req.Action)
			}
		default:
			cluster.WriteError(w, http.StatusMethodNotAllowed, "use GET to list, POST to drain")
		}
	})
}

// Server wraps http.Server with the production posture a scoring replica
// needs: header/write timeouts against slowloris and stuck clients, and
// context-driven graceful shutdown that drains in-flight scores before the
// process exits — a replica kill (SIGTERM from an orchestrator, a rolling
// restart) must not drop requests it already accepted.
type Server struct {
	srv      *http.Server
	ln       net.Listener
	draining atomic.Bool
	done     chan struct{}

	// LameDuck is how long the server keeps accepting traffic after
	// Shutdown begins while already failing /readyz — the window a router
	// or load balancer needs to notice the replica is going away and stop
	// picking it before the listener actually closes. 0 closes immediately.
	LameDuck time.Duration
}

// NewServer builds a hardened server around a score handler. While a
// Shutdown is draining, the wrapped /readyz answers 503 ("draining") so
// routers and orchestrators stop sending new work to a replica on its way
// out, while already-accepted requests still complete.
func NewServer(addr string, handler http.Handler) *Server {
	s := &Server{done: make(chan struct{})}
	s.srv = &http.Server{
		Addr: addr,
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if s.draining.Load() && r.URL.Path == "/readyz" {
				cluster.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": "draining"})
				return
			}
			handler.ServeHTTP(w, r)
		}),
		ReadHeaderTimeout: 10 * time.Second,
		// A full 1024-bytecode batch can legitimately take a while on a
		// loaded replica; these bound pathology, not honest work.
		ReadTimeout:  2 * time.Minute,
		WriteTimeout: 2 * time.Minute,
		IdleTimeout:  2 * time.Minute,
	}
	return s
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string {
	if s.ln != nil {
		return s.ln.Addr().String()
	}
	return s.srv.Addr
}

// Start binds the listener and serves in the background, returning once the
// address is bound. Serve errors (other than graceful close) surface on the
// returned channel.
func (s *Server) Start() (<-chan error, error) {
	ln, err := net.Listen("tcp", s.srv.Addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	errc := make(chan error, 1)
	go func() {
		defer close(s.done)
		if err := s.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
		close(errc)
	}()
	return errc, nil
}

// ListenAndServe binds and serves in the foreground (the CLI path).
func (s *Server) ListenAndServe() error {
	errc, err := s.Start()
	if err != nil {
		return err
	}
	return <-errc
}

// Shutdown drains the server: readiness flips to 503 immediately, the
// listener closes, and in-flight requests run to completion (bounded by
// ctx). Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	if s.LameDuck > 0 {
		select {
		case <-time.After(s.LameDuck):
		case <-ctx.Done():
		}
	}
	err := s.srv.Shutdown(ctx)
	select {
	case <-s.done:
	case <-ctx.Done():
	}
	return err
}

// Draining reports whether a graceful shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }
