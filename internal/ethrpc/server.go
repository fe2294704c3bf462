// Package ethrpc implements the slice of the Ethereum JSON-RPC 2.0 protocol
// the paper's Bytecode Extraction Module uses (eth_getCode, eth_blockNumber,
// eth_chainId), as an http server backed by a simulated chain and a client
// with timeouts and retry. Both sides speak JSON-RPC 2.0 batches, which the
// Watchtower uses to amortize one HTTP round trip across a whole block
// window's bytecode fetches.
package ethrpc

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/phishinghook/phishinghook/internal/chain"
)

// JSON-RPC 2.0 error codes used by the server.
const (
	codeParse          = -32700
	codeInvalidRequest = -32600
	codeMethodNotFound = -32601
	codeInvalidParams  = -32602
	// codeFilterNotFound mirrors geth's -32000 "filter not found": the server
	// forgot (or never had) the polled filter, and the client must install a
	// fresh one. The feed client maps it to ErrFilterNotFound.
	codeFilterNotFound = -32000
)

type rpcRequest struct {
	JSONRPC string            `json:"jsonrpc"`
	ID      json.RawMessage   `json:"id"`
	Method  string            `json:"method"`
	Params  []json.RawMessage `json:"params"`
}

type rpcError struct {
	Code    int    `json:"code"`
	Message string `json:"message"`
}

func (e *rpcError) Error() string {
	return fmt.Sprintf("rpc error %d: %s", e.Code, e.Message)
}

type rpcResponse struct {
	JSONRPC string          `json:"jsonrpc"`
	ID      json.RawMessage `json:"id"`
	Result  any             `json:"result,omitempty"`
	Error   *rpcError       `json:"error,omitempty"`
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithServerRateLimit puts a token bucket in front of the server: a
// sustained itemsPerSec JSON-RPC items (a batch of n costs n tokens) with
// the given burst depth. An exhausted bucket answers HTTP 429 with a
// fractional-seconds Retry-After header sized to the deficit — real
// providers (Infura, Alchemy, …) cap per-key request rates exactly like
// this, which is why ingestion fans out over multiple endpoints at all. The
// simulated plane models that: one rate-limited endpoint bounds a single
// client, N endpoints give N× the fetch capacity.
func WithServerRateLimit(itemsPerSec, burst float64) ServerOption {
	return func(s *Server) {
		if itemsPerSec <= 0 {
			return
		}
		if burst < itemsPerSec/10 {
			burst = itemsPerSec / 10
		}
		s.rate = itemsPerSec
		s.burst = burst
		s.tokens = burst
		s.last = time.Now()
	}
}

// Server serves eth_* methods over HTTP POST. It implements http.Handler.
type Server struct {
	chain   *chain.Chain
	chainID uint64
	// requests counts served calls (observability for the crawler tests).
	requests atomic.Int64
	// rejected counts exchanges refused by the rate limiter.
	rejected atomic.Int64

	// Token bucket (enabled when rate > 0). owed tracks capacity already
	// promised to 429'd callers via Retry-After, so concurrent rejects are
	// told staggered waits instead of herding back at the same instant.
	limitMu sync.Mutex
	rate    float64
	burst   float64
	tokens  float64
	owed    float64
	last    time.Time

	// Pending-transaction filters: per-server state mapping a filter ID to a
	// cursor into the chain's visible tx log. Filters are node-local (a
	// client that fails over to another endpoint must reinstall), exactly as
	// with real providers.
	filterMu   sync.Mutex
	filters    map[string]*txFilter
	nextFilter atomic.Int64
}

// txFilter is one installed pending-transaction filter.
type txFilter struct {
	cursor int
}

// NewServer returns a JSON-RPC server over the given chain state.
func NewServer(c *chain.Chain, chainID uint64, opts ...ServerOption) *Server {
	s := &Server{chain: c, chainID: chainID, filters: make(map[string]*txFilter)}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Requests returns the number of RPC calls served so far.
func (s *Server) Requests() int64 { return s.requests.Load() }

// RateLimited returns the number of exchanges refused with 429.
func (s *Server) RateLimited() int64 { return s.rejected.Load() }

// allow charges cost items against the bucket. The bucket runs on debt: a
// request is served while the balance is positive and charged in full (the
// balance may go negative, so one batch larger than the burst depth still
// gets through — refill pays the debt before the next exchange). A negative
// balance rejects with ok=false and how long the caller should wait; the
// wait accounts for capacity already promised to earlier rejects, so
// concurrent rejects are staggered instead of herding back together.
func (s *Server) allow(cost float64) (wait time.Duration, ok bool) {
	if s.rate <= 0 {
		return 0, true
	}
	s.limitMu.Lock()
	defer s.limitMu.Unlock()
	now := time.Now()
	elapsed := now.Sub(s.last).Seconds()
	s.last = now
	s.tokens += elapsed * s.rate
	if s.tokens > s.burst {
		s.tokens = s.burst
	}
	s.owed -= elapsed * s.rate
	if s.owed < 0 {
		s.owed = 0
	}
	if s.tokens > 0 {
		s.tokens -= cost
		return 0, true
	}
	secs := (s.owed - s.tokens + 1) / s.rate
	s.owed += cost
	return time.Duration(secs * float64(time.Second)), false
}

// reject answers one rate-limited exchange.
func (s *Server) reject(w http.ResponseWriter, wait time.Duration) {
	s.rejected.Add(1)
	w.Header().Set("Retry-After", fmt.Sprintf("%.3f", wait.Seconds()))
	http.Error(w, "rate limited", http.StatusTooManyRequests)
}

// ServeHTTP handles one JSON-RPC exchange: a single request object or a
// JSON-RPC 2.0 batch (an array of requests answered with an array of
// responses, one per item).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeResponse(w, rpcResponse{JSONRPC: "2.0", Error: &rpcError{codeParse, "parse error: " + err.Error()}})
		return
	}
	if trimmed := bytes.TrimLeft(body, " \t\r\n"); len(trimmed) > 0 && trimmed[0] == '[' {
		var reqs []rpcRequest
		if err := json.Unmarshal(trimmed, &reqs); err != nil {
			writeResponse(w, rpcResponse{JSONRPC: "2.0", Error: &rpcError{codeParse, "parse error: " + err.Error()}})
			return
		}
		if wait, ok := s.allow(float64(len(reqs))); !ok {
			s.reject(w, wait)
			return
		}
		resps := make([]rpcResponse, len(reqs))
		for i, req := range reqs {
			resps[i] = s.handleOne(req)
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(resps)
		return
	}
	var req rpcRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeResponse(w, rpcResponse{JSONRPC: "2.0", Error: &rpcError{codeParse, "parse error: " + err.Error()}})
		return
	}
	if wait, ok := s.allow(1); !ok {
		s.reject(w, wait)
		return
	}
	writeResponse(w, s.handleOne(req))
}

// handleOne dispatches a single request envelope, counting it as one served
// call (a batch of n counts n).
func (s *Server) handleOne(req rpcRequest) rpcResponse {
	s.requests.Add(1)
	resp := rpcResponse{JSONRPC: "2.0", ID: req.ID}
	result, rerr := s.dispatch(req)
	if rerr != nil {
		resp.Error = rerr
	} else {
		resp.Result = result
	}
	return resp
}

func writeResponse(w http.ResponseWriter, resp rpcResponse) {
	w.Header().Set("Content-Type", "application/json")
	// Encoding of our own value types cannot fail; ignore the write error
	// like net/http handlers conventionally do.
	_ = json.NewEncoder(w).Encode(resp)
}

func (s *Server) dispatch(req rpcRequest) (any, *rpcError) {
	if req.JSONRPC != "2.0" && req.JSONRPC != "" {
		return nil, &rpcError{codeInvalidRequest, "unsupported jsonrpc version"}
	}
	switch req.Method {
	case "eth_blockNumber":
		return hexUint(s.chain.HeadBlock()), nil
	case "eth_chainId":
		return hexUint(s.chainID), nil
	case "eth_getCode":
		return s.getCode(req.Params)
	case "eth_newPendingTransactionFilter":
		return s.newPendingTxFilter(req.Params)
	case "eth_getFilterChanges":
		return s.getFilterChanges(req.Params)
	case "eth_uninstallFilter":
		return s.uninstallFilter(req.Params)
	case "eth_getTransactionByHash":
		return s.getTransactionByHash(req.Params)
	default:
		return nil, &rpcError{codeMethodNotFound, "method not found: " + req.Method}
	}
}

func (s *Server) getCode(params []json.RawMessage) (any, *rpcError) {
	if len(params) < 1 || len(params) > 2 {
		return nil, &rpcError{codeInvalidParams, "eth_getCode takes (address, blockTag)"}
	}
	var addrHex string
	if err := json.Unmarshal(params[0], &addrHex); err != nil {
		return nil, &rpcError{codeInvalidParams, "address must be a string"}
	}
	addr, err := chain.ParseAddress(addrHex)
	if err != nil {
		return nil, &rpcError{codeInvalidParams, err.Error()}
	}
	if len(params) == 2 {
		var tag string
		if err := json.Unmarshal(params[1], &tag); err != nil {
			return nil, &rpcError{codeInvalidParams, "block tag must be a string"}
		}
		if tag != "latest" && tag != "pending" && !strings.HasPrefix(tag, "0x") {
			return nil, &rpcError{codeInvalidParams, "unsupported block tag " + tag}
		}
	}
	code := s.chain.GetCode(addr)
	if code == nil {
		return "0x", nil // match real node behaviour for EOAs / absent accounts
	}
	return "0x" + hex.EncodeToString(code), nil
}

func hexUint(v uint64) string { return fmt.Sprintf("0x%x", v) }

// maxFilterBatch caps how many pending txs one eth_getFilterChanges poll
// returns. One poll costs one rate-limit token regardless of how many txs it
// carries — the per-item amortization that lets the tx stream sustain
// mempool-scale rates through the same quota that bounds per-contract
// fetches.
const maxFilterBatch = 512

// wireTx is the JSON wire form of a pending transaction (the "full
// transaction objects" flavor of the filter API).
type wireTx struct {
	Hash        string `json:"hash"`
	From        string `json:"from"`
	To          string `json:"to"`
	Value       string `json:"value"`
	Input       string `json:"input"`
	BlockNumber string `json:"blockNumber"`
}

func encodeWireTx(tx *chain.Tx) wireTx {
	input := "0x"
	if len(tx.Calldata) > 0 {
		input = "0x" + hex.EncodeToString(tx.Calldata)
	}
	return wireTx{
		Hash:        tx.HashHex(),
		From:        tx.From.String(),
		To:          tx.To.String(),
		Value:       hexUint(tx.Value),
		Input:       input,
		BlockNumber: hexUint(tx.Block),
	}
}

// newPendingTxFilter installs a pending-transaction filter. With no params
// the filter sees only txs arriving after installation (the standard
// protocol behaviour); an optional fromBlock hex-quantity param — a sim
// extension standing in for the archive replay a real deployment would do —
// rewinds the cursor so a restarted watcher can resume from its checkpoint.
func (s *Server) newPendingTxFilter(params []json.RawMessage) (any, *rpcError) {
	if len(params) > 1 {
		return nil, &rpcError{codeInvalidParams, "eth_newPendingTransactionFilter takes at most (fromBlock)"}
	}
	cursor := s.chain.TxCount()
	if len(params) == 1 {
		var tag string
		if err := json.Unmarshal(params[0], &tag); err != nil {
			return nil, &rpcError{codeInvalidParams, "fromBlock must be a hex-quantity string"}
		}
		from, err := parseHexQuantity(tag)
		if err != nil {
			return nil, &rpcError{codeInvalidParams, "bad fromBlock " + tag}
		}
		cursor = s.chain.TxIndexAtBlock(from)
	}
	id := fmt.Sprintf("0x%x", s.nextFilter.Add(1))
	s.filterMu.Lock()
	s.filters[id] = &txFilter{cursor: cursor}
	s.filterMu.Unlock()
	return id, nil
}

// getFilterChanges drains up to maxFilterBatch newly visible txs from the
// filter's cursor, returning full transaction objects.
func (s *Server) getFilterChanges(params []json.RawMessage) (any, *rpcError) {
	if len(params) != 1 {
		return nil, &rpcError{codeInvalidParams, "eth_getFilterChanges takes (filterID)"}
	}
	var id string
	if err := json.Unmarshal(params[0], &id); err != nil {
		return nil, &rpcError{codeInvalidParams, "filter ID must be a string"}
	}
	s.filterMu.Lock()
	f, ok := s.filters[id]
	s.filterMu.Unlock()
	if !ok {
		return nil, &rpcError{codeFilterNotFound, "filter not found"}
	}
	// The cursor advance races only with same-filter polls; the chain read is
	// consistent on its own, so serialize per poll under filterMu.
	s.filterMu.Lock()
	txs, next := s.chain.TxsSince(f.cursor, maxFilterBatch)
	f.cursor = next
	s.filterMu.Unlock()
	out := make([]wireTx, len(txs))
	for i, tx := range txs {
		out[i] = encodeWireTx(tx)
	}
	return out, nil
}

// uninstallFilter removes a filter, reporting whether it existed.
func (s *Server) uninstallFilter(params []json.RawMessage) (any, *rpcError) {
	if len(params) != 1 {
		return nil, &rpcError{codeInvalidParams, "eth_uninstallFilter takes (filterID)"}
	}
	var id string
	if err := json.Unmarshal(params[0], &id); err != nil {
		return nil, &rpcError{codeInvalidParams, "filter ID must be a string"}
	}
	s.filterMu.Lock()
	_, ok := s.filters[id]
	delete(s.filters, id)
	s.filterMu.Unlock()
	return ok, nil
}

// getTransactionByHash returns the full tx object, or null for unknown (or
// not-yet-visible) hashes, like a real node.
func (s *Server) getTransactionByHash(params []json.RawMessage) (any, *rpcError) {
	if len(params) != 1 {
		return nil, &rpcError{codeInvalidParams, "eth_getTransactionByHash takes (hash)"}
	}
	var hashHex string
	if err := json.Unmarshal(params[0], &hashHex); err != nil {
		return nil, &rpcError{codeInvalidParams, "hash must be a string"}
	}
	hashHex = strings.TrimPrefix(strings.TrimPrefix(strings.TrimSpace(hashHex), "0x"), "0X")
	raw, err := hex.DecodeString(hashHex)
	if err != nil || len(raw) != 32 {
		return nil, &rpcError{codeInvalidParams, "hash must be 32 hex bytes"}
	}
	var h [32]byte
	copy(h[:], raw)
	tx, ok := s.chain.TxByHash(h)
	if !ok {
		return nil, nil
	}
	return encodeWireTx(tx), nil
}
