package ethrpc

import (
	"context"
	"time"

	"github.com/phishinghook/phishinghook/internal/chain"
)

// MultiClient fans JSON-RPC calls across several endpoints — the adaptive
// fetch plane under the backfill engine and the watcher. It is a thin
// JSON-RPC skin over the endpoint-generic Plane scheduler: every endpoint
// runs its own AIMD concurrency window (grow additively on success, halve on
// 429/timeout, TCP-style), a health EWMA steers each call toward the
// endpoint most likely to answer, and an optional hedge re-issues straggling
// requests on a second endpoint. Rate-limited providers are the point: one
// API key caps out at its quota, N endpoints give N× the fetch ceiling, and
// AIMD finds each endpoint's sustainable concurrency without configuration.
//
// With a single endpoint the MultiClient is a byte-identical passthrough to
// a plain Client (same retry policy, same timing, same errors): the plane
// only changes behavior when there is actually a plane.
//
// Safe for concurrent use.
type MultiClient struct {
	plane   *Plane
	clients []*Client // clients[i] backs plane node i
	single  *Client   // set when len(clients) == 1: verbatim Client semantics
}

// MultiOption configures a MultiClient.
type MultiOption func(*multiConfig)

type multiConfig struct {
	attempts        int
	backoff         time.Duration
	hedge           time.Duration
	maxLimit        int
	breakerStreak   int
	breakerCooldown time.Duration
}

// WithMultiRetries sets plane-level attempts per call (default 4) and the
// base backoff between them (default 50ms, doubled with jitter; a 429's
// Retry-After is honored instead when present). Each attempt may land on a
// different endpoint.
func WithMultiRetries(attempts int, backoff time.Duration) MultiOption {
	return func(c *multiConfig) {
		if attempts > 0 {
			c.attempts = attempts
		}
		if backoff > 0 {
			c.backoff = backoff
		}
	}
}

// WithHedge re-issues a request on a second endpoint when the first hasn't
// answered within delay, taking whichever result lands first — the classic
// tail-at-scale defense against one slow node. 0 (the default) disables
// hedging.
func WithHedge(delay time.Duration) MultiOption {
	return func(c *multiConfig) { c.hedge = delay }
}

// WithMaxConcurrency caps each endpoint's AIMD window (default 64).
func WithMaxConcurrency(n int) MultiOption {
	return func(c *multiConfig) {
		if n > 0 {
			c.maxLimit = n
		}
	}
}

// WithMultiBreaker tunes the per-endpoint circuit breaker: streak 0 keeps
// the default of 8 consecutive hard failures, negative disables; cooldown 0
// keeps the 2s default. Chaos soaks shrink the cooldown toward the polling
// interval so recovery after a full blackout is bounded by polls, not by
// the breaker's re-probe timer.
func WithMultiBreaker(streak int, cooldown time.Duration) MultiOption {
	return func(c *multiConfig) {
		c.breakerStreak = streak
		c.breakerCooldown = cooldown
	}
}

// aimdInitialLimit is where every node's window starts: low enough to probe
// politely, high enough that growth finds the ceiling within a few hundred
// calls.
const aimdInitialLimit = 4

// aimdHalveCooldown spaces multiplicative decreases: one congestion event
// (burst of 429s from the same cause) halves the window once, not once per
// in-flight request.
const aimdHalveCooldown = 50 * time.Millisecond

// healthGain is the EWMA step for the per-node health score.
const healthGain = 0.1

// NewMultiClient builds a fetch plane over the given endpoint URLs.
func NewMultiClient(endpoints []string, opts ...MultiOption) (*MultiClient, error) {
	cfg := multiConfig{attempts: 4, backoff: 50 * time.Millisecond}
	for _, opt := range opts {
		opt(&cfg)
	}
	planeOpts := []PlaneOption{
		WithPlaneRetries(cfg.attempts, cfg.backoff),
		WithPlaneHedge(cfg.hedge),
		WithPlaneBreaker(cfg.breakerStreak, cfg.breakerCooldown),
	}
	if cfg.maxLimit > 0 {
		planeOpts = append(planeOpts, WithPlaneMaxConcurrency(cfg.maxLimit))
	}
	plane, err := NewPlane(endpoints, planeOpts...)
	if err != nil {
		return nil, err
	}
	m := &MultiClient{plane: plane}
	if len(endpoints) == 1 {
		// Byte-identical single-endpoint mode: the plain Client owns retry,
		// backoff and timeout exactly as before the plane existed; the lone
		// node only keeps outcome counters.
		m.single = NewClient(endpoints[0])
		m.clients = []*Client{m.single}
		return m, nil
	}
	for _, url := range endpoints {
		// One attempt per exchange: the plane owns retries so a failure can
		// rotate to a different endpoint instead of hammering the same one,
		// and so AIMD sees every congestion signal.
		m.clients = append(m.clients, NewClient(url, WithRetries(1, cfg.backoff)))
	}
	return m, nil
}

// Endpoints returns how many endpoints back the plane.
func (m *MultiClient) Endpoints() int { return len(m.clients) }

// Stats snapshots every endpoint.
func (m *MultiClient) Stats() []EndpointStats {
	out := m.plane.Stats()
	if m.single != nil {
		for i := range out {
			out[i].Limit = 0 // uncapped: the plain client has no window
		}
	}
	return out
}

// GetCode fetches deployed bytecode at addr ("latest").
func (m *MultiClient) GetCode(ctx context.Context, addr chain.Address) ([]byte, error) {
	return multiDo(ctx, m, func(ctx context.Context, c *Client) ([]byte, error) {
		return c.GetCode(ctx, addr)
	})
}

// GetCodeBatch fetches bytecode for many addresses in one batch round trip,
// scheduled onto the healthiest endpoint with spare AIMD capacity.
func (m *MultiClient) GetCodeBatch(ctx context.Context, addrs []chain.Address) ([][]byte, error) {
	if len(addrs) == 0 {
		return nil, nil
	}
	return multiDo(ctx, m, func(ctx context.Context, c *Client) ([][]byte, error) {
		return c.GetCodeBatch(ctx, addrs)
	})
}

// BlockNumber returns the head block (as reported by whichever endpoint the
// scheduler picked — the plane assumes all endpoints serve the same chain).
func (m *MultiClient) BlockNumber(ctx context.Context) (uint64, error) {
	return multiDo(ctx, m, func(ctx context.Context, c *Client) (uint64, error) {
		return c.BlockNumber(ctx)
	})
}

// ChainID returns the chain identifier.
func (m *MultiClient) ChainID(ctx context.Context) (uint64, error) {
	return multiDo(ctx, m, func(ctx context.Context, c *Client) (uint64, error) {
		return c.ChainID(ctx)
	})
}

// multiDo dispatches one call: the single-endpoint passthrough, or the
// plane-level scheduled/hedged/retried exchange. The plane deliberately
// ignores Retry-After between its attempts: that header is one endpoint's
// directive, and the next attempt rotates to a different endpoint with
// spare capacity — stalling the whole call for a stormed endpoint's penalty
// would idle the healthy rest of the plane. The stormed endpoint itself is
// held back by its halved AIMD window and decayed health score instead.
func multiDo[T any](ctx context.Context, m *MultiClient, fn func(context.Context, *Client) (T, error)) (T, error) {
	if m.single != nil {
		n := m.plane.Nodes()[0]
		n.requests.Add(1)
		v, err := fn(ctx, m.single)
		n.CountOutcome(err)
		return v, err
	}
	return PlaneDo(ctx, m.plane, nil, func(ctx context.Context, n *Node) (T, error) {
		return fn(ctx, m.clients[n.Index()])
	})
}
