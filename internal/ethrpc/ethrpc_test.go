package ethrpc

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/phishinghook/phishinghook/internal/chain"
	"github.com/phishinghook/phishinghook/internal/synth"
)

func testChain(t *testing.T) *chain.Chain {
	t.Helper()
	c, err := chain.Build(chain.BuildConfig{
		Generator:      synth.NewGenerator(synth.DefaultConfig(5)),
		Timeline:       synth.ScaledTimeline(40, 26),
		BenignPerMonth: chain.UniformBenign(26),
		ProxyFraction:  0.1,
	})
	if err != nil {
		t.Fatalf("build chain: %v", err)
	}
	return c
}

func TestGetCodeRoundTrip(t *testing.T) {
	c := testChain(t)
	srv := httptest.NewServer(NewServer(c, 1))
	defer srv.Close()
	client := NewClient(srv.URL)
	ctx := context.Background()

	for _, ct := range c.All()[:10] {
		code, err := client.GetCode(ctx, ct.Addr)
		if err != nil {
			t.Fatalf("GetCode(%s): %v", ct.Addr, err)
		}
		if !bytes.Equal(code, ct.Code) {
			t.Fatalf("GetCode(%s) returned %d bytes, want %d", ct.Addr, len(code), len(ct.Code))
		}
	}
}

func TestGetCodeAbsentAddress(t *testing.T) {
	c := testChain(t)
	srv := httptest.NewServer(NewServer(c, 1))
	defer srv.Close()
	client := NewClient(srv.URL)
	code, err := client.GetCode(context.Background(), chain.DeriveAddress(999, 999))
	if err != nil {
		t.Fatalf("GetCode absent: %v", err)
	}
	if code != nil {
		t.Errorf("absent address returned %d bytes, want nil", len(code))
	}
}

func TestBlockNumberAndChainID(t *testing.T) {
	c := testChain(t)
	srv := httptest.NewServer(NewServer(c, 1337))
	defer srv.Close()
	client := NewClient(srv.URL)
	ctx := context.Background()

	bn, err := client.BlockNumber(ctx)
	if err != nil {
		t.Fatalf("BlockNumber: %v", err)
	}
	if bn != c.HeadBlock() {
		t.Errorf("BlockNumber = %d, want %d", bn, c.HeadBlock())
	}
	id, err := client.ChainID(ctx)
	if err != nil {
		t.Fatalf("ChainID: %v", err)
	}
	if id != 1337 {
		t.Errorf("ChainID = %d, want 1337", id)
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	c := testChain(t)
	srv := httptest.NewServer(NewServer(c, 1))
	defer srv.Close()

	post := func(body string) map[string]any {
		resp, err := http.Post(srv.URL, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode: %v", err)
		}
		return out
	}

	tests := []struct {
		name, body string
	}{
		{"parse error", "{not json"},
		{"unknown method", `{"jsonrpc":"2.0","id":1,"method":"eth_call","params":[]}`},
		{"bad params arity", `{"jsonrpc":"2.0","id":1,"method":"eth_getCode","params":[]}`},
		{"bad address", `{"jsonrpc":"2.0","id":1,"method":"eth_getCode","params":["0x12","latest"]}`},
		{"bad block tag", `{"jsonrpc":"2.0","id":1,"method":"eth_getCode","params":["0x0000000000000000000000000000000000000001","zzz"]}`},
	}
	for _, tt := range tests {
		out := post(tt.body)
		if out["error"] == nil {
			t.Errorf("%s: no error in response %v", tt.name, out)
		}
	}
}

func TestServerRejectsGET(t *testing.T) {
	c := testChain(t)
	srv := httptest.NewServer(NewServer(c, 1))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d, want 405", resp.StatusCode)
	}
}

func TestClientRetriesTransientFailures(t *testing.T) {
	c := testChain(t)
	inner := NewServer(c, 1)
	var calls atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer flaky.Close()

	client := NewClient(flaky.URL, WithRetries(4, time.Millisecond))
	if _, err := client.BlockNumber(context.Background()); err != nil {
		t.Fatalf("BlockNumber through flaky server: %v", err)
	}
	if calls.Load() != 3 {
		t.Errorf("server saw %d calls, want 3 (2 failures + success)", calls.Load())
	}
}

func TestClientDoesNotRetryRPCErrors(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"jsonrpc":"2.0","id":1,"error":{"code":-32601,"message":"nope"}}`))
	}))
	defer srv.Close()
	client := NewClient(srv.URL, WithRetries(5, time.Millisecond))
	if _, err := client.BlockNumber(context.Background()); err == nil {
		t.Fatal("expected error")
	}
	if calls.Load() != 1 {
		t.Errorf("client retried an application error: %d calls", calls.Load())
	}
}

func TestClientHonorsContextCancellation(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(200 * time.Millisecond)
	}))
	defer srv.Close()
	client := NewClient(srv.URL, WithHTTPClient(&http.Client{}))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := client.BlockNumber(ctx)
	if err == nil {
		t.Fatal("expected context error")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
}

func TestClientMalformedResponse(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("{truncated"))
	}))
	defer srv.Close()
	client := NewClient(srv.URL, WithRetries(2, time.Millisecond))
	if _, err := client.BlockNumber(context.Background()); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestRequestCounter(t *testing.T) {
	c := testChain(t)
	s := NewServer(c, 1)
	srv := httptest.NewServer(s)
	defer srv.Close()
	client := NewClient(srv.URL)
	for i := 0; i < 5; i++ {
		if _, err := client.BlockNumber(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if s.Requests() != 5 {
		t.Errorf("Requests = %d, want 5", s.Requests())
	}
}

func TestClientRetriesThrough429(t *testing.T) {
	c := testChain(t)
	inner := NewServer(c, 7)
	var calls atomic.Int64
	limited := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			// Fractional Retry-After keeps the test fast; the client honors
			// it (see TestClientHonorsRetryAfter for the timing contract).
			w.Header().Set("Retry-After", "0.02")
			http.Error(w, "rate limited", http.StatusTooManyRequests)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer limited.Close()

	client := NewClient(limited.URL, WithRetries(4, time.Millisecond))
	id, err := client.ChainID(context.Background())
	if err != nil {
		t.Fatalf("ChainID through 429s: %v", err)
	}
	if id != 7 {
		t.Errorf("ChainID = %d, want 7", id)
	}
	if calls.Load() != 3 {
		t.Errorf("server saw %d calls, want 3 (2 × 429 + success)", calls.Load())
	}
}

// TestClientHonorsRetryAfter pins the backoff contract: a 429 carrying
// Retry-After makes the client wait at least that long (instead of its
// default exponential guess), while the cap keeps hostile values bounded.
func TestClientHonorsRetryAfter(t *testing.T) {
	c := testChain(t)
	inner := NewServer(c, 7)
	var calls atomic.Int64
	limited := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "0.3")
			http.Error(w, "rate limited", http.StatusTooManyRequests)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer limited.Close()

	// Base backoff of 1ms: without honoring Retry-After the retry would land
	// almost immediately.
	client := NewClient(limited.URL, WithRetries(3, time.Millisecond))
	t0 := time.Now()
	if _, err := client.ChainID(context.Background()); err != nil {
		t.Fatalf("ChainID: %v", err)
	}
	if elapsed := time.Since(t0); elapsed < 300*time.Millisecond {
		t.Errorf("retry after %v, want >= 300ms (the advertised Retry-After)", elapsed)
	}
	if d := retryDelay(time.Millisecond, &RateLimitError{RetryAfter: time.Hour}); d > maxRetryAfterWait+maxRetryAfterWait/2 {
		t.Errorf("hostile Retry-After honored for %v, cap is %v plus jitter", d, maxRetryAfterWait)
	}
}

// TestServerRateLimitEndToEnd drives the client against a sim server with a
// token bucket: the bucket must 429 a burst (with a Retry-After the client
// honors), and the retrying client must still land every call.
func TestServerRateLimitEndToEnd(t *testing.T) {
	c := testChain(t)
	s := NewServer(c, 1, WithServerRateLimit(200, 20))
	srv := httptest.NewServer(s)
	defer srv.Close()

	client := NewClient(srv.URL, WithRetries(5, time.Millisecond))
	ctx := context.Background()
	all := c.All()
	addrs := make([]chain.Address, 0, 30)
	for _, ct := range all {
		addrs = append(addrs, ct.Addr)
		if len(addrs) == 30 {
			break
		}
	}
	// 5 batches of 30 items against a 20-token bucket refilling at 200/s:
	// the burst must trip the limiter, and honoring Retry-After must carry
	// every batch through within the retry budget.
	for i := 0; i < 5; i++ {
		codes, err := client.GetCodeBatch(ctx, addrs)
		if err != nil {
			t.Fatalf("batch %d through rate limiter: %v", i, err)
		}
		for j, ct := range all[:len(addrs)] {
			if !bytes.Equal(codes[j], ct.Code) {
				t.Fatalf("batch %d item %d corrupted", i, j)
			}
		}
	}
	if s.RateLimited() == 0 {
		t.Error("token bucket never fired for a burst beyond its depth")
	}
	if s.Requests() != 5*int64(len(addrs)) {
		t.Errorf("served items = %d, want %d (rejected exchanges must not count)", s.Requests(), 5*len(addrs))
	}
}

func TestClient429ExhaustsRetries(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "rate limited", http.StatusTooManyRequests)
	}))
	defer srv.Close()
	client := NewClient(srv.URL, WithRetries(3, time.Millisecond))
	if _, err := client.BlockNumber(context.Background()); err == nil {
		t.Fatal("expected error after exhausting retries")
	}
	if calls.Load() != 3 {
		t.Errorf("server saw %d calls, want all 3 attempts", calls.Load())
	}
}

func TestHexQuantityParsing(t *testing.T) {
	// BlockNumber and ChainID share parseHexQuantity; malformed results from a
	// broken node must surface as errors, not zero values.
	for _, tc := range []struct {
		name, result string
		wantErr      bool
	}{
		{"happy", `"0x1a"`, false},
		{"no prefix", `"ff"`, false}, // some nodes omit 0x; hex still parses
		{"not hex", `"0xzz"`, true},
		{"empty", `""`, true},
		{"not a string", `42`, true},
		{"object result", `{"v":1}`, true},
	} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write([]byte(`{"jsonrpc":"2.0","id":1,"result":` + tc.result + `}`))
		}))
		client := NewClient(srv.URL, WithRetries(1, time.Millisecond))
		bn, err := client.BlockNumber(context.Background())
		if tc.wantErr && err == nil {
			t.Errorf("%s: BlockNumber(%s) = %d, want error", tc.name, tc.result, bn)
		}
		if !tc.wantErr && err != nil {
			t.Errorf("%s: BlockNumber(%s): %v", tc.name, tc.result, err)
		}
		id, err := client.ChainID(context.Background())
		if tc.wantErr && err == nil {
			t.Errorf("%s: ChainID(%s) = %d, want error", tc.name, tc.result, id)
		}
		if !tc.wantErr && err != nil {
			t.Errorf("%s: ChainID(%s): %v", tc.name, tc.result, err)
		}
		srv.Close()
	}
}

func TestGetCodeBatchRoundTrip(t *testing.T) {
	c := testChain(t)
	s := NewServer(c, 1)
	srv := httptest.NewServer(s)
	defer srv.Close()
	client := NewClient(srv.URL)

	all := c.All()
	addrs := make([]chain.Address, 0, 12)
	for _, ct := range all[:10] {
		addrs = append(addrs, ct.Addr)
	}
	addrs = append(addrs, chain.DeriveAddress(999, 999)) // absent → nil entry
	codes, err := client.GetCodeBatch(context.Background(), addrs)
	if err != nil {
		t.Fatalf("GetCodeBatch: %v", err)
	}
	if len(codes) != len(addrs) {
		t.Fatalf("got %d results, want %d", len(codes), len(addrs))
	}
	for i, ct := range all[:10] {
		if !bytes.Equal(codes[i], ct.Code) {
			t.Fatalf("batch item %d: %d bytes, want %d", i, len(codes[i]), len(ct.Code))
		}
	}
	if codes[10] != nil {
		t.Errorf("absent address returned %d bytes, want nil", len(codes[10]))
	}
	// One HTTP exchange, but the server counts every item as a served call.
	if s.Requests() != int64(len(addrs)) {
		t.Errorf("Requests = %d, want %d batch items", s.Requests(), len(addrs))
	}
	if out, err := client.GetCodeBatch(context.Background(), nil); err != nil || out != nil {
		t.Errorf("empty batch: (%v, %v), want (nil, nil)", out, err)
	}
}

func TestBatchItemErrorFailsBatch(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`[{"jsonrpc":"2.0","id":1,"result":"0x60"},{"jsonrpc":"2.0","id":2,"error":{"code":-32602,"message":"bad address"}}]`))
	}))
	defer srv.Close()
	client := NewClient(srv.URL, WithRetries(1, time.Millisecond))
	_, err := client.GetCodeBatch(context.Background(),
		[]chain.Address{chain.DeriveAddress(1, 1), chain.DeriveAddress(1, 2)})
	if err == nil {
		t.Fatal("item-level error should fail the batch")
	}
	if !strings.Contains(err.Error(), "bad address") {
		t.Errorf("error should carry the item message: %v", err)
	}
}
