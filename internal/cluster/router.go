package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/phishinghook/phishinghook/internal/ethrpc"
	"github.com/phishinghook/phishinghook/internal/evm"
	"github.com/phishinghook/phishinghook/internal/obs"
)

// Config tunes a Router.
type Config struct {
	// Replicas are the scoring replicas' base URLs (each serving the
	// standard /score, /healthz, /readyz and /admin surface). Required.
	Replicas []string
	// Vnodes is the per-replica virtual-node count (default 64).
	Vnodes int
	// Neighborhood is how many candidate replicas (owner + ring
	// successors) each key may be scheduled onto (default 2, capped at the
	// replica count). 1 disables failover rehashing.
	Neighborhood int
	// Hedge re-issues a straggling sub-request on a second neighborhood
	// replica after this delay (0 disables).
	Hedge time.Duration
	// Attempts/Backoff drive the per-sub-request retry loop (defaults 4,
	// 50ms; a 429's Retry-After is honored instead when present).
	Attempts int
	Backoff  time.Duration
	// MaxConcurrency caps each replica's AIMD window (default 64).
	MaxConcurrency int
	// MaxPending bounds bytecodes admitted but not yet answered — the
	// router's queue. Admissions beyond it are refused with 429 and a
	// jittered Retry-After instead of queuing unboundedly (default 4096).
	MaxPending int
	// Timeout caps one HTTP exchange with a replica (default 30s).
	Timeout time.Duration
	// OwnerBonus is the scheduling-score bonus keeping keys on their hash
	// owner (default 0.25; see ethrpc.WithPlaneOwnerAffinity).
	OwnerBonus float64
	// ReadyTimeout bounds how long a rolling promote waits for one replica
	// to report ready again after a reload/promote step (default 15s).
	ReadyTimeout time.Duration
	// WatchdogStreak ejects a replica from owner scheduling after this many
	// consecutive timed-out sub-batches (default 3, negative disables). The
	// watchdog is the hang-without-crash complement to the plane's circuit
	// breaker: a crashed replica refuses connections and trips the breaker,
	// but a hung one eats the full Timeout per exchange — AIMD halves its
	// window yet the owner bonus keeps steering keys at it. Ejection demotes
	// it behind its ring neighbors for WatchdogCooldown, then re-probes.
	WatchdogStreak int
	// WatchdogCooldown is how long an ejected replica stays demoted before
	// the next sub-batch re-probes it (default 5s).
	WatchdogCooldown time.Duration
	// DisableTxFallback turns off the code-only degraded mode on /score/tx.
	// By default a tx sub-batch whose fused scoring fails on every candidate
	// (the calldata half faulting replica-side) is re-answered from the
	// callee bytecodes alone via /score — alerts keep flowing on code
	// evidence, with PayloadProb reported as zero, until the fused path
	// recovers.
	DisableTxFallback bool
	// HTTPClient substitutes the transport (tests). Timeout still applies
	// per exchange via context.
	HTTPClient *http.Client
}

// Router is the stateless scoring front door: it owns no model and no
// cache, only the ring, the plane scheduler and counters — N routers can
// front the same replica set.
type Router struct {
	cfg   Config
	ring  *Ring
	plane *ethrpc.Plane
	httpc *http.Client

	started time.Time

	pending  atomic.Int64  // bytecodes admitted, not yet answered
	requests atomic.Uint64 // /score HTTP requests
	scored   atomic.Uint64 // bytecodes routed to a successful verdict
	rejected atomic.Uint64 // admissions refused with 429
	rehashes atomic.Uint64 // sub-batches served off-owner (failover/hedge win)
	errored  atomic.Uint64 // sub-batches failed after all retries
	ejected  atomic.Uint64 // watchdog ejections of hung replicas
	degraded atomic.Uint64 // tx verdicts answered by the code-only fallback

	// Hung-replica watchdog state: consecutive-timeout streak and the
	// demotion deadline per replica base URL.
	wmu     sync.Mutex
	wstreak map[string]int
	wuntil  map[string]time.Time
}

// NewRouter builds a router over the replica set.
func NewRouter(cfg Config) (*Router, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one replica")
	}
	if cfg.Neighborhood <= 0 {
		cfg.Neighborhood = 2
	}
	if cfg.Neighborhood > len(cfg.Replicas) {
		cfg.Neighborhood = len(cfg.Replicas)
	}
	if cfg.Attempts <= 0 {
		cfg.Attempts = 4
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 50 * time.Millisecond
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = 4096
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.OwnerBonus <= 0 {
		cfg.OwnerBonus = 0.25
	}
	if cfg.ReadyTimeout <= 0 {
		cfg.ReadyTimeout = 15 * time.Second
	}
	if cfg.WatchdogStreak == 0 {
		cfg.WatchdogStreak = 3
	}
	if cfg.WatchdogCooldown <= 0 {
		cfg.WatchdogCooldown = 5 * time.Second
	}
	ring, err := NewRing(cfg.Replicas, cfg.Vnodes)
	if err != nil {
		return nil, err
	}
	planeOpts := []ethrpc.PlaneOption{
		ethrpc.WithPlaneRetries(cfg.Attempts, cfg.Backoff),
		ethrpc.WithPlaneHedge(cfg.Hedge),
		ethrpc.WithPlaneRetryAfter(),
		ethrpc.WithPlaneOwnerAffinity(cfg.OwnerBonus),
	}
	if cfg.MaxConcurrency > 0 {
		planeOpts = append(planeOpts, ethrpc.WithPlaneMaxConcurrency(cfg.MaxConcurrency))
	}
	plane, err := ethrpc.NewPlane(cfg.Replicas, planeOpts...)
	if err != nil {
		return nil, err
	}
	httpc := cfg.HTTPClient
	if httpc == nil {
		httpc = &http.Client{Transport: ethrpc.NewPooledTransport()}
	}
	return &Router{
		cfg:     cfg,
		ring:    ring,
		plane:   plane,
		httpc:   httpc,
		started: time.Now(),
		wstreak: make(map[string]int),
		wuntil:  make(map[string]time.Time),
	}, nil
}

// watchdogObserve feeds one sub-batch outcome into the hung-replica watchdog.
// Only full-exchange timeouts count toward the streak — refused connections
// and torn responses are the circuit breaker's domain, and a hedge loser's
// cancellation is neither. Any success resets the replica completely.
func (rt *Router) watchdogObserve(base string, err error) {
	if rt.cfg.WatchdogStreak < 0 {
		return
	}
	rt.wmu.Lock()
	defer rt.wmu.Unlock()
	if err == nil {
		delete(rt.wstreak, base)
		delete(rt.wuntil, base)
		return
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		return
	}
	rt.wstreak[base]++
	if rt.wstreak[base] >= rt.cfg.WatchdogStreak {
		rt.wstreak[base] = 0
		rt.wuntil[base] = time.Now().Add(rt.cfg.WatchdogCooldown)
		rt.ejected.Add(1)
	}
}

// watchdogEjected reports whether base is currently demoted; an expired
// demotion is cleared so the next sub-batch re-probes the replica.
func (rt *Router) watchdogEjected(base string) bool {
	rt.wmu.Lock()
	defer rt.wmu.Unlock()
	until, ok := rt.wuntil[base]
	if !ok {
		return false
	}
	if time.Now().Before(until) {
		return true
	}
	delete(rt.wuntil, base)
	return false
}

// demoteEjected reorders a neighborhood candidate list so watchdog-ejected
// replicas sort behind responsive ones: a hung owner loses both its sticky
// bonus and its place in line, but stays reachable as the last resort. When
// every candidate is ejected the original order stands — answering slowly
// beats refusing.
func (rt *Router) demoteEjected(cands []*ethrpc.Node) []*ethrpc.Node {
	if rt.cfg.WatchdogStreak < 0 || len(cands) < 2 {
		return cands
	}
	live := make([]*ethrpc.Node, 0, len(cands))
	var dead []*ethrpc.Node
	for _, n := range cands {
		if rt.watchdogEjected(n.Name()) {
			dead = append(dead, n)
		} else {
			live = append(live, n)
		}
	}
	if len(live) == 0 {
		return cands
	}
	return append(live, dead...)
}

// Ring returns the router's hash ring (read-only).
func (rt *Router) Ring() *Ring { return rt.ring }

// Stats is the router's operational snapshot.
type Stats struct {
	Replicas []ethrpc.EndpointStats `json:"replicas"`
	Keyspace []float64              `json:"keyspace_fraction"`
	Requests uint64                 `json:"requests"`
	Scored   uint64                 `json:"scored"`
	Rejected uint64                 `json:"rejected"`
	Rehashes uint64                 `json:"rehashes"`
	Errors   uint64                 `json:"errors"`
	Pending  int64                  `json:"pending"`
	// Ejections counts hung-replica watchdog demotions; Degraded counts tx
	// verdicts answered by the code-only fallback while /score/tx faulted.
	Ejections uint64 `json:"watchdog_ejections"`
	Degraded  uint64 `json:"degraded_tx_verdicts"`
}

// Stats snapshots the router.
func (rt *Router) Stats() Stats {
	s := Stats{
		Replicas: rt.plane.Stats(),
		Keyspace: make([]float64, len(rt.cfg.Replicas)),
		Requests: rt.requests.Load(),
		Scored:   rt.scored.Load(),
		Rejected: rt.rejected.Load(),
		Rehashes: rt.rehashes.Load(),
		Errors:   rt.errored.Load(),
		Pending:  rt.pending.Load(),

		Ejections: rt.ejected.Load(),
		Degraded:  rt.degraded.Load(),
	}
	for i := range s.Keyspace {
		s.Keyspace[i] = rt.ring.OwnedFraction(i)
	}
	return s
}

// RouteBatch scores raw bytecodes across the ring and returns verdicts
// aligned with codes. It is the Go-level routing core under the HTTP
// handler; errors are all-or-nothing per call.
func (rt *Router) RouteBatch(ctx context.Context, codes [][]byte) ([]Verdict, error) {
	hexes := make([]string, len(codes))
	for i, c := range codes {
		hexes[i] = evm.EncodeHex(c)
	}
	return rt.route(ctx, codes, hexes)
}

// route fans a bytecode batch out over /score, keyed by each code's SHA-256.
// The hexes are forwarded as given, never re-encoded from codes.
func (rt *Router) route(ctx context.Context, codes [][]byte, hexes []string) ([]Verdict, error) {
	keys := make([][32]byte, len(codes))
	for i, c := range codes {
		keys[i] = KeyOf(c)
	}
	return fanOut(ctx, rt, "/score", keys, hexes, func(h []string) any { return ScoreRequest{Bytecodes: h} }, nil)
}

// RouteTxBatch routes transactions (hex calldata + callee bytecode) across
// the ring and returns fused verdicts aligned with items. Each tx is keyed by
// its callee bytecode's SHA-256 — the same key /score shards on — so a tx
// lands on the replica whose code-side digest cache its callee already
// warmed. EOA callees (empty code) all share KeyOf(nil) and pin to one
// neighborhood, which is fine: their code side is a constant zero and the
// payload cache still dedups by calldata digest.
func (rt *Router) RouteTxBatch(ctx context.Context, items []TxScoreItem) ([]Verdict, error) {
	keys := make([][32]byte, len(items))
	for i, it := range items {
		code, err := evm.DecodeHex(it.Code)
		if err != nil {
			return nil, fmt.Errorf("cluster: tx %d code: %w", i, err)
		}
		keys[i] = KeyOf(code)
	}
	return rt.routeTx(ctx, items, keys)
}

// routeTx fans a transaction batch out over /score/tx. Unless disabled, the
// code-only fallback re-answers a sub-batch that failed on every candidate.
func (rt *Router) routeTx(ctx context.Context, items []TxScoreItem, keys [][32]byte) ([]Verdict, error) {
	var fallback func(context.Context, []TxScoreItem) ([]Verdict, error)
	if !rt.cfg.DisableTxFallback {
		fallback = rt.txCodeFallback
	}
	return fanOut(ctx, rt, "/score/tx", keys, items, func(t []TxScoreItem) any { return TxScoreRequest{Txs: t} }, fallback)
}

// fanOut groups items by the hash neighborhood of their keys, sends each
// group to path as one sub-batch on its candidates in parallel, and
// reassembles the verdicts in request order. envelope wraps a sub-batch in
// path's request body; a non-nil fallback may re-answer a sub-batch that
// failed on every candidate.
func fanOut[T any](ctx context.Context, rt *Router, path string, keys [][32]byte, items []T,
	envelope func([]T) any, fallback func(context.Context, []T) ([]Verdict, error)) ([]Verdict, error) {
	type group struct {
		cands []*ethrpc.Node // candidate nodes, owner first
		idx   []int          // positions in the original request
		items []T            // forwarded items
	}
	nodes := rt.plane.Nodes()
	groups := make(map[string]*group)
	for i, key := range keys {
		hood := rt.ring.Neighborhood(key, rt.cfg.Neighborhood)
		gk := fmt.Sprint(hood)
		g, ok := groups[gk]
		if !ok {
			g = &group{cands: make([]*ethrpc.Node, len(hood))}
			for j, ri := range hood {
				g.cands[j] = nodes[ri]
			}
			g.cands = rt.demoteEjected(g.cands)
			groups[gk] = g
		}
		g.idx = append(g.idx, i)
		g.items = append(g.items, items[i])
	}

	out := make([]Verdict, len(items))
	var wg sync.WaitGroup
	errCh := make(chan error, len(groups))
	for _, g := range groups {
		wg.Add(1)
		go func(g *group) {
			defer wg.Done()
			owner := g.cands[0]
			verdicts, err := ethrpc.PlaneDo(ctx, rt.plane, g.cands, func(ctx context.Context, n *ethrpc.Node) ([]Verdict, error) {
				vs, err := exchange(ctx, rt.httpc, rt.cfg.Timeout, n.Name(), path, envelope(g.items), len(g.items))
				rt.watchdogObserve(n.Name(), err)
				if err == nil && n != owner {
					rt.rehashes.Add(1)
				}
				return vs, err
			})
			if err != nil && fallback != nil && ctx.Err() == nil {
				if fvs, ferr := fallback(ctx, g.items); ferr == nil {
					rt.degraded.Add(uint64(len(fvs)))
					verdicts, err = fvs, nil
				}
			}
			if err != nil {
				rt.errored.Add(1)
				errCh <- fmt.Errorf("cluster: %s sub-batch of %d via %s: %w", path, len(g.items), owner.Name(), err)
				return
			}
			for j, v := range verdicts {
				out[g.idx[j]] = v
			}
			rt.scored.Add(uint64(len(verdicts)))
		}(g)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		return nil, err
	}
	return out, nil
}

// txCodeFallback re-answers a failed /score/tx sub-batch from the code half
// alone: the callee bytecodes go through the ordinary /score path (which may
// land on any healthy replica) and the payload probability is reported as
// zero. EOA callees — no code to judge, no calldata scorer reachable —
// degrade to an explicit benign zero-confidence verdict. The point is that a
// replica-side calldata-model fault does not silence code-evidenced alerts;
// fused confidence returns when /score/tx recovers.
func (rt *Router) txCodeFallback(ctx context.Context, items []TxScoreItem) ([]Verdict, error) {
	out := make([]Verdict, len(items))
	var codes [][]byte
	var hexes []string
	var pos []int
	for i, it := range items {
		code, err := evm.DecodeHex(it.Code)
		if err != nil || len(code) == 0 {
			out[i] = Verdict{Label: "benign", Modality: "tx"}
			continue
		}
		codes = append(codes, code)
		hexes = append(hexes, it.Code)
		pos = append(pos, i)
	}
	if len(codes) > 0 {
		vs, err := rt.route(ctx, codes, hexes)
		if err != nil {
			return nil, err
		}
		for j, v := range vs {
			v.Modality, v.CodeProb = "tx", v.Confidence
			out[pos[j]] = v
		}
	}
	return out, nil
}

// retryAfterSeconds is the jittered backpressure hint attached to a 429:
// uniformly 50–150ms, in the same fractional-seconds format the ethrpc
// client parses. Jitter matters — a thundering herd told "0.1" to the
// millisecond would return as a thundering herd.
func retryAfterSeconds() string {
	return fmt.Sprintf("%.3f", 0.05+rand.Float64()*0.1)
}

// Handler returns the router's HTTP surface:
//
//	POST /score         — routed scoring, wire-identical to a replica's /score
//	POST /score/tx      — routed transaction scoring, keyed by callee bytecode
//	GET  /healthz       — role=router, replica set, ring + routing counters
//	GET  /readyz        — readiness (200 once constructed; the router is stateless)
//	GET  /metrics       — phishinghook_cluster_* Prometheus series
//	POST /admin/promote — rolling promote across the ring, readiness-gated
//	POST /admin/reload  — rolling reload across the ring, readiness-gated
//	GET  /admin/cluster — per-replica champion/readiness survey
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/score", rt.handleScore)
	mux.HandleFunc("/score/tx", rt.handleTxScore)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]any{
			"status":         "ok",
			"role":           "router",
			"replicas":       rt.ring.Replicas(),
			"vnodes":         rt.ring.Vnodes(),
			"cluster":        rt.Stats(),
			"uptime_seconds": time.Since(rt.started).Seconds(),
		})
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]any{"ready": true, "role": "router"})
	})
	mux.Handle("/metrics", obs.Handler(rt.writeMetrics))
	mux.HandleFunc("/admin/promote", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			WriteError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		rep, err := rt.RollingPromote(r.Context())
		if err != nil {
			WriteJSON(w, http.StatusBadGateway, map[string]any{"error": err.Error(), "rolling": rep})
			return
		}
		WriteJSON(w, http.StatusOK, map[string]any{"rolling": rep})
	})
	mux.HandleFunc("/admin/reload", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			WriteError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		rep, err := rt.RollingReload(r.Context())
		if err != nil {
			WriteJSON(w, http.StatusBadGateway, map[string]any{"error": err.Error(), "rolling": rep})
			return
		}
		WriteJSON(w, http.StatusOK, map[string]any{"rolling": rep})
	})
	mux.HandleFunc("/admin/cluster", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]any{"replicas": rt.Survey(r.Context())})
	})
	return mux
}

func (rt *Router) handleScore(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		rt.requests.Add(1)
	}
	req, ok := DecodeScoreRequest(w, r)
	if !ok || !rt.admit(w, len(req.Codes), "bytecodes") {
		return
	}
	defer rt.pending.Add(-int64(len(req.Codes)))
	t0 := time.Now()
	verdicts, err := rt.route(r.Context(), req.Codes, req.Hexes)
	respond(w, verdicts, err, req.Single, t0)
}

func (rt *Router) handleTxScore(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		rt.requests.Add(1)
	}
	req, ok := DecodeTxScoreRequest(w, r)
	if !ok || !rt.admit(w, len(req.Items), "items") {
		return
	}
	defer rt.pending.Add(-int64(len(req.Items)))
	keys := make([][32]byte, len(req.Items))
	for i, code := range req.Code {
		keys[i] = KeyOf(code)
	}
	t0 := time.Now()
	verdicts, err := rt.routeTx(r.Context(), req.Items, keys)
	respond(w, verdicts, err, req.Single, t0)
}

// admit reserves n items against MaxPending. A full queue answers 429 +
// jittered Retry-After — a typed backpressure signal clients (and this
// router's own plane, when stacked) already know how to honor — never an
// undifferentiated 503 or an unbounded pileup. The caller releases an
// admitted reservation.
func (rt *Router) admit(w http.ResponseWriter, n int, noun string) bool {
	if rt.pending.Add(int64(n)) <= int64(rt.cfg.MaxPending) {
		return true
	}
	rt.pending.Add(-int64(n))
	rt.rejected.Add(1)
	w.Header().Set("Retry-After", retryAfterSeconds())
	WriteError(w, http.StatusTooManyRequests, "router saturated: %d %s pending (max %d)", rt.pending.Load(), noun, rt.cfg.MaxPending)
	return false
}

// respond answers a routed request: 502 when routing failed, else the
// verdict envelope.
func respond(w http.ResponseWriter, verdicts []Verdict, err error, single bool, t0 time.Time) {
	if err != nil {
		WriteError(w, http.StatusBadGateway, "route: %v", err)
		return
	}
	WriteScoreResponse(w, verdicts, single, t0)
}

// writeMetrics renders the phishinghook_cluster_* Prometheus series.
func (rt *Router) writeMetrics(w *obs.Writer) {
	s := rt.Stats()
	w.Metric("phishinghook_cluster_uptime_seconds", "Seconds since the router started.", obs.Gauge, time.Since(rt.started).Seconds())
	w.Metric("phishinghook_cluster_replicas", "Replicas in the ring.", obs.Gauge, float64(len(s.Replicas)))
	w.Metric("phishinghook_cluster_requests_total", "Score requests accepted by the router.", obs.Counter, float64(s.Requests))
	w.Metric("phishinghook_cluster_scores_total", "Bytecodes routed to a successful verdict.", obs.Counter, float64(s.Scored))
	w.Metric("phishinghook_cluster_rejected_total", "Requests refused with 429 at admission.", obs.Counter, float64(s.Rejected))
	w.Metric("phishinghook_cluster_rehash_total", "Sub-batches served by a ring neighbor instead of the key owner.", obs.Counter, float64(s.Rehashes))
	w.Metric("phishinghook_cluster_errors_total", "Sub-batches failed after all retries.", obs.Counter, float64(s.Errors))
	w.Metric("phishinghook_cluster_pending", "Bytecodes admitted and awaiting verdicts.", obs.Gauge, float64(s.Pending))
	w.Metric("phishinghook_cluster_watchdog_ejections_total", "Hung-replica watchdog demotions.", obs.Counter, float64(s.Ejections))
	w.Metric("phishinghook_cluster_degraded_tx_total", "Tx verdicts answered by the code-only fallback.", obs.Counter, float64(s.Degraded))
	ethrpc.WriteEndpointSeries(w, "phishinghook_cluster_replica_", "replica", s.Replicas)
	names := rt.ring.Replicas()
	w.Family("phishinghook_cluster_ring_vnodes", "Virtual nodes per replica.", obs.Gauge, "replica", len(names),
		func(i int) (string, float64) { return names[i], float64(rt.ring.Vnodes()) })
	w.Family("phishinghook_cluster_ring_keyspace_fraction", "Share of the hash keyspace owned per replica.", obs.Gauge, "replica", len(names),
		func(i int) (string, float64) { return names[i], s.Keyspace[i] })
}
