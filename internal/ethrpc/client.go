package ethrpc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/phishinghook/phishinghook/internal/chain"
	"github.com/phishinghook/phishinghook/internal/evm"
)

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithHTTPClient substitutes the underlying http.Client (tests inject
// httptest servers or failing transports).
func WithHTTPClient(h *http.Client) ClientOption {
	return func(c *Client) { c.http = h }
}

// WithRetries sets the number of attempts per call (default 3) and the base
// backoff between them (default 50ms, doubled each retry with jitter).
func WithRetries(attempts int, backoff time.Duration) ClientOption {
	return func(c *Client) {
		if attempts > 0 {
			c.attempts = attempts
		}
		if backoff > 0 {
			c.backoff = backoff
		}
	}
}

// WithTimeout caps one HTTP exchange (default 10s). The multi-endpoint fetch
// plane uses short timeouts so stragglers surface fast enough to hedge.
func WithTimeout(d time.Duration) ClientOption {
	return func(c *Client) {
		if d > 0 {
			c.http.Timeout = d
		}
	}
}

// RateLimitError is an HTTP 429 from the endpoint. RetryAfter carries the
// parsed Retry-After header (0 when the server didn't send one); the retry
// loop honors it instead of guessing a backoff, and the multi-endpoint fetch
// plane treats it as the congestion signal that halves an endpoint's AIMD
// concurrency window.
type RateLimitError struct {
	RetryAfter time.Duration
}

func (e *RateLimitError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("rate limited (429, retry after %s)", e.RetryAfter)
	}
	return "rate limited (429)"
}

// transientError marks a failure the caller may safely retry against the
// same or another endpoint (transport faults, 5xx, 429, torn responses).
// JSON-RPC application errors and malformed-but-authoritative responses are
// never wrapped: the server has answered.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// IsTransient reports whether err is a retryable fault (the classification
// the MultiClient scheduler keys on).
func IsTransient(err error) bool {
	var te *transientError
	return errors.As(err, &te)
}

// maxRetryAfterWait caps how long a Retry-After header is honored, so a
// hostile or broken server cannot park a client for minutes.
const maxRetryAfterWait = 5 * time.Second

// retryDelay returns the jittered wait before the next attempt: the server's
// Retry-After when the previous failure was a 429 that carried one
// (capped), otherwise the caller's exponential backoff.
func retryDelay(backoff time.Duration, lastErr error) time.Duration {
	wait := backoff
	var rl *RateLimitError
	if errors.As(lastErr, &rl) && rl.RetryAfter > 0 {
		wait = rl.RetryAfter
		if wait > maxRetryAfterWait {
			wait = maxRetryAfterWait
		}
	}
	return wait + time.Duration(rand.Int63n(int64(wait)/2+1))
}

// Client is a minimal JSON-RPC 2.0 client for the eth_* methods the BEM
// needs. It is safe for concurrent use.
type Client struct {
	endpoint string
	http     *http.Client
	attempts int
	backoff  time.Duration
	nextID   atomic.Int64
}

// NewClient returns a client for the given endpoint URL.
func NewClient(endpoint string, opts ...ClientOption) *Client {
	c := &Client{
		endpoint: endpoint,
		http:     &http.Client{Timeout: 10 * time.Second, Transport: NewPooledTransport()},
		attempts: 3,
		backoff:  50 * time.Millisecond,
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// NewPooledTransport returns a transport sized for one-endpoint fan-out. The
// stdlib default keeps only 2 idle connections per host, so a worker pool
// hammering a single node re-handshakes constantly; raising the idle pool
// is worth >2x throughput on the extraction and monitoring hot paths. The
// explorer crawler shares it.
func NewPooledTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 256
	t.MaxIdleConnsPerHost = 256
	return t
}

// maxDrain bounds how much of an unwanted response body DrainClose reads.
const maxDrain = 64 << 10

// DrainClose discards up to 64 KB of a response body and closes it. The
// transport returns a connection to its idle pool only once the body has
// been read to EOF, so closing the unread body of a refused exchange (429,
// 5xx) would cost a fresh TCP connection per refusal, exactly when the
// endpoint is already overloaded. A larger body is not worth reading; its
// connection is dropped.
func DrainClose(body io.ReadCloser) {
	_, _ = io.CopyN(io.Discard, body, maxDrain)
	_ = body.Close()
}

// wireRequest is the JSON-RPC 2.0 request envelope.
type wireRequest struct {
	JSONRPC string `json:"jsonrpc"`
	ID      int64  `json:"id"`
	Method  string `json:"method"`
	Params  []any  `json:"params"`
}

// wireResponse is the JSON-RPC 2.0 response envelope, typed by its result
// member so one json.Unmarshal of the body fills the caller's result
// directly.
type wireResponse[T any] struct {
	ID     int64     `json:"id"`
	Result T         `json:"result"`
	Error  *rpcError `json:"error"`
}

// call performs one JSON-RPC call with retry on transport errors, 429s and
// 5xx statuses, and returns the result member decoded as a T. JSON-RPC
// application errors are not retried: the server has answered
// authoritatively.
func call[T any](ctx context.Context, c *Client, method string, params ...any) (T, error) {
	var resp wireResponse[T]
	var zero T
	if params == nil {
		params = []any{}
	}
	reqBody, err := json.Marshal(wireRequest{JSONRPC: "2.0", ID: c.nextID.Add(1), Method: method, Params: params})
	if err != nil {
		return zero, fmt.Errorf("ethrpc: marshal request: %w", err)
	}
	if err := c.post(ctx, reqBody, &resp); err != nil {
		return zero, fmt.Errorf("ethrpc: %s: %w", method, err)
	}
	if resp.Error != nil {
		return zero, resp.Error
	}
	return resp.Result, nil
}

// readBufPool recycles the buffers response bodies are read into. Decoded
// results never alias them (json copies strings, hexCode allocates the
// code), so only this transient buffer is pooled and the caller owns what
// it gets back. A buffer grown past maxPooledRead is left to the GC so one
// outsized response cannot pin its memory in the pool.
var readBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledRead = 1 << 20

// post runs the retry loop around one HTTP exchange and decodes the response
// body into `into` in one pass. json.Unmarshal checks the whole document
// before it populates anything, so a torn body (a *json.SyntaxError) never
// leaves stale fields behind and is retried like a transport error;
// well-formed JSON of the wrong shape is the server's authoritative answer
// and is not. Retries sleep a jittered exponential backoff, except after a
// 429 that carried a Retry-After header — the server has named its price,
// so that wait (capped, jittered) is honored instead.
func (c *Client) post(ctx context.Context, body []byte, into any) error {
	buf := readBufPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledRead {
			buf.Reset()
			readBufPool.Put(buf)
		}
	}()
	var lastErr error
	backoff := c.backoff
	for attempt := 0; attempt < c.attempts; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(retryDelay(backoff, lastErr)):
			}
			backoff *= 2
		}
		buf.Reset()
		retryable, err := c.once(ctx, body, buf)
		if err == nil {
			if err = json.Unmarshal(buf.Bytes(), into); err == nil {
				return nil
			}
			var syntax *json.SyntaxError
			if !errors.As(err, &syntax) {
				return fmt.Errorf("decode response: %w", err)
			}
			err = fmt.Errorf("decode response: %w", err)
			retryable = true
		}
		lastErr = err
		if !retryable {
			return err
		}
	}
	return &transientError{fmt.Errorf("failed after %d attempts: %w", c.attempts, lastErr)}
}

// once runs one HTTP exchange, reading a 200 body into buf.
func (c *Client) once(ctx context.Context, body []byte, buf *bytes.Buffer) (retryable bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.endpoint, bytes.NewReader(body))
	if err != nil {
		return false, fmt.Errorf("build request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return true, fmt.Errorf("transport: %w", err)
	}
	defer DrainClose(resp.Body)
	if resp.StatusCode >= 500 {
		return true, fmt.Errorf("server status %d", resp.StatusCode)
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		// Rate-limited providers (Infura, Alchemy, …) answer 429 under
		// burst; surface the Retry-After so the retry loop can honor it.
		return true, &RateLimitError{RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After"))}
	}
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("unexpected status %d", resp.StatusCode)
	}
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return true, fmt.Errorf("read response: %w", err)
	}
	return false, nil
}

// parseRetryAfter reads a Retry-After value in seconds. Fractional seconds
// are accepted (the simulated endpoints advertise sub-second refills);
// HTTP-date forms and garbage parse as 0, i.e. "not stated".
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
	if err != nil || secs <= 0 {
		return 0
	}
	return time.Duration(secs * float64(time.Second))
}

// GetCode fetches the deployed bytecode at addr ("latest" block). A nil,
// nil return means no code is deployed there (an EOA).
func (c *Client) GetCode(ctx context.Context, addr chain.Address) ([]byte, error) {
	h, err := call[hexCode](ctx, c, "eth_getCode", addr.String(), "latest")
	if err != nil {
		return nil, err
	}
	return h.bytes()
}

// GetCodeBatch fetches deployed bytecode for many addresses in one JSON-RPC
// 2.0 batch round trip (the Watchtower's fetch hot path: amortizing the HTTP
// exchange across a window's deployments is worth ~an order of magnitude in
// contracts/sec). Results align with addrs; nil entries are EOAs. Responses
// are matched by id, as the spec allows reordering; the first missing
// response, item-level application error or bad code fails the batch.
func (c *Client) GetCodeBatch(ctx context.Context, addrs []chain.Address) ([][]byte, error) {
	if len(addrs) == 0 {
		return nil, nil
	}
	n := int64(len(addrs))
	base := c.nextID.Add(n) - n + 1
	reqs := make([]wireRequest, len(addrs))
	for i, a := range addrs {
		reqs[i] = wireRequest{JSONRPC: "2.0", ID: base + int64(i), Method: "eth_getCode", Params: []any{a.String(), "latest"}}
	}
	reqBody, err := json.Marshal(reqs)
	if err != nil {
		return nil, fmt.Errorf("ethrpc: marshal batch: %w", err)
	}
	var resps []wireResponse[hexCode]
	if err := c.post(ctx, reqBody, &resps); err != nil {
		return nil, fmt.Errorf("ethrpc: eth_getCode batch: %w", err)
	}
	// A repeated id keeps its last response; ids outside the batch are
	// ignored.
	byItem := make([]*wireResponse[hexCode], len(addrs))
	for i := range resps {
		if k := resps[i].ID - base; k >= 0 && k < n {
			byItem[k] = &resps[i]
		}
	}
	out := make([][]byte, len(addrs))
	for i, resp := range byItem {
		if resp == nil {
			return nil, fmt.Errorf("ethrpc: eth_getCode batch: missing response for item %d", i)
		}
		if resp.Error != nil {
			return nil, fmt.Errorf("ethrpc: eth_getCode batch item %d: %w", i, resp.Error)
		}
		if out[i], err = resp.Result.bytes(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// hexCode is an eth_getCode result decoded straight from its JSON literal
// inside the response body: the hex digits are decoded into one
// exactly-sized slice, with no intermediate string. A decode failure is
// kept rather than returned, so a bad entry fails a batch only when it
// answers one of the batch's ids (exactly as if it had been decoded on
// demand), and the envelope's error member still takes precedence.
type hexCode struct {
	code []byte
	err  error
	set  bool // the result member was present (null included)
}

func (h *hexCode) UnmarshalJSON(lit []byte) error {
	*h = hexCode{set: true}
	h.code, h.err = decodeCodeLiteral(lit)
	return nil
}

// bytes returns the decoded code; an answer with neither a result nor an
// error is refused.
func (h *hexCode) bytes() ([]byte, error) {
	if !h.set {
		return nil, errors.New("ethrpc: eth_getCode response has no result")
	}
	return h.code, h.err
}

// decodeCodeLiteral decodes one eth_getCode JSON literal (already validated
// by json.Unmarshal). null, "0x" and "" mean no code. Digits containing a
// backslash escape or a non-ASCII byte are unquoted by encoding/json first;
// every other literal is hex-decoded in place.
func decodeCodeLiteral(lit []byte) ([]byte, error) {
	if string(lit) == "null" {
		return nil, nil
	}
	if lit[0] != '"' {
		return nil, fmt.Errorf("ethrpc: eth_getCode result not a string: %.32s", lit)
	}
	var code []byte
	var err error
	if digits := lit[1 : len(lit)-1]; plainASCII(digits) {
		if len(digits) == 0 || string(digits) == "0x" {
			return nil, nil
		}
		code, err = evm.DecodeHexBytes(digits)
	} else {
		var s string
		if err := json.Unmarshal(lit, &s); err != nil {
			return nil, fmt.Errorf("ethrpc: eth_getCode result not a string: %w", err)
		}
		if s == "" || s == "0x" {
			return nil, nil
		}
		code, err = evm.DecodeHex(s)
	}
	if err != nil {
		return nil, fmt.Errorf("ethrpc: eth_getCode returned bad hex: %w", err)
	}
	return code, nil
}

// plainASCII reports whether a JSON string's raw contents equal its
// unquoted value: no escapes and no multi-byte (possibly invalid) UTF-8.
func plainASCII(b []byte) bool {
	for _, c := range b {
		if c == '\\' || c >= 0x80 {
			return false
		}
	}
	return true
}

// BlockNumber returns the node's head block number.
func (c *Client) BlockNumber(ctx context.Context) (uint64, error) {
	s, err := call[string](ctx, c, "eth_blockNumber")
	if err != nil {
		return 0, err
	}
	return parseHexQuantity(s)
}

// ChainID returns the node's chain identifier.
func (c *Client) ChainID(ctx context.Context) (uint64, error) {
	s, err := call[string](ctx, c, "eth_chainId")
	if err != nil {
		return 0, err
	}
	return parseHexQuantity(s)
}

// parseHexQuantity parses a JSON-RPC hex quantity ("0x1a"; some nodes omit
// the prefix).
func parseHexQuantity(s string) (uint64, error) {
	v, err := strconv.ParseUint(strings.TrimPrefix(s, "0x"), 16, 64)
	if err != nil {
		return 0, fmt.Errorf("ethrpc: bad hex quantity %q: %w", s, err)
	}
	return v, nil
}
