package ethrpc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/phishinghook/phishinghook/internal/chain"
	"github.com/phishinghook/phishinghook/internal/evm"
)

// cannedTransport answers every request 200 with the same body without a
// server, so a test sees (and counts the allocations of) the client alone.
type cannedTransport struct{ body []byte }

func (t cannedTransport) RoundTrip(*http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"application/json"}},
		Body:       io.NopCloser(bytes.NewReader(t.body)),
	}, nil
}

// cannedClient is a single-attempt client whose every exchange returns body.
// Its first call carries id 1; a first batch of n carries ids 1..n.
func cannedClient(body []byte) *Client {
	return NewClient("http://canned.invalid",
		WithHTTPClient(&http.Client{Transport: cannedTransport{body}}),
		WithRetries(1, time.Millisecond))
}

// refWireResponse and the ref* functions below are the two-stage decoder the
// client used before results were typed: validate the body into a
// RawMessage, decode the envelope with a RawMessage result, then parse each
// result on its own. They are kept only as the reference of
// FuzzDecodeRPCResponse, replaying one single-attempt exchange.
type refWireResponse struct {
	ID     int64           `json:"id"`
	Result json.RawMessage `json:"result"`
	Error  *rpcError       `json:"error"`
}

func refDecode(raw []byte, into any) error {
	var checked json.RawMessage
	if err := json.Unmarshal(raw, &checked); err != nil {
		return &transientError{fmt.Errorf("failed after 1 attempts: decode response: %w", err)}
	}
	if err := json.Unmarshal(checked, into); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	return nil
}

func refDecodeCodeResult(raw json.RawMessage) ([]byte, error) {
	var hexCode string
	if err := json.Unmarshal(raw, &hexCode); err != nil {
		return nil, fmt.Errorf("ethrpc: eth_getCode result not a string: %w", err)
	}
	if hexCode == "0x" || hexCode == "" {
		return nil, nil
	}
	code, err := evm.DecodeHex(hexCode)
	if err != nil {
		return nil, fmt.Errorf("ethrpc: eth_getCode returned bad hex: %w", err)
	}
	return code, nil
}

// refGetCodeBatch decodes a response to a batch of n requests with ids 1..n.
func refGetCodeBatch(raw []byte, n int) ([][]byte, error) {
	var resps []refWireResponse
	if err := refDecode(raw, &resps); err != nil {
		return nil, err
	}
	byID := make(map[int64]*refWireResponse, len(resps))
	for i := range resps {
		byID[resps[i].ID] = &resps[i]
	}
	results := make([]json.RawMessage, n)
	for i := range results {
		resp, ok := byID[int64(i)+1]
		if !ok {
			return nil, fmt.Errorf("missing response for item %d", i)
		}
		if resp.Error != nil {
			return nil, fmt.Errorf("batch item %d: %w", i, resp.Error)
		}
		results[i] = resp.Result
	}
	out := make([][]byte, n)
	for i, r := range results {
		var err error
		if out[i], err = refDecodeCodeResult(r); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// refTxFilterChanges decodes an eth_getFilterChanges response. The per-tx
// field parsing (decodedWireTx.decode) is shared with the client: only the
// response decode is under test here.
func refTxFilterChanges(raw []byte) ([]PendingTx, error) {
	var resp refWireResponse
	if err := refDecode(raw, &resp); err != nil {
		return nil, err
	}
	if resp.Error != nil {
		return nil, filterError(resp.Error)
	}
	var wire []decodedWireTx
	if err := json.Unmarshal(resp.Result, &wire); err != nil {
		return nil, fmt.Errorf("eth_getFilterChanges result: %w", err)
	}
	out := make([]PendingTx, len(wire))
	for i := range wire {
		var err error
		if out[i], err = wire[i].decode(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sameOutcome reports how two errors differ in what a caller can act on:
// failure vs success, the retry classification and a forgotten filter.
func sameOutcome(got, want error) string {
	switch {
	case (got == nil) != (want == nil):
		return fmt.Sprintf("error %v, reference %v", got, want)
	case IsTransient(got) != IsTransient(want):
		return fmt.Sprintf("IsTransient(%v) = %v, reference %v", got, IsTransient(got), want)
	case errors.Is(got, ErrFilterNotFound) != errors.Is(want, ErrFilterNotFound):
		return fmt.Sprintf("filter-not-found %v, reference %v", got, want)
	}
	return ""
}

const fuzzBatch = 3

func codeResp(id int, result string) string {
	return fmt.Sprintf(`{"jsonrpc":"2.0","id":%d,"result":%s}`, id, result)
}

func codeBatchBody(results ...string) string {
	parts := make([]string, len(results))
	for i, r := range results {
		parts[i] = codeResp(i+1, r)
	}
	return "[" + strings.Join(parts, ",") + "]"
}

const fuzzTx = `{"hash":"0x` + "11223344556677889900aabbccddeeff11223344556677889900aabbccddeeff" +
	`","from":"0x00000000000000000000000000000000000000a1","to":"0x00000000000000000000000000000000000000b2",` +
	`"value":"0x2a","input":"0x095ea7b3","blockNumber":"0x10"}`

// FuzzDecodeRPCResponse feeds arbitrary response bodies through the client's
// one-pass typed decode (GetCodeBatch for a 3-item batch, TxFilterChanges)
// and through the two-stage reference, and requires the same codes or txs,
// the same failure vs success and the same retry classification.
func FuzzDecodeRPCResponse(f *testing.F) {
	for _, seed := range []string{
		codeBatchBody(`"0x6080604052"`, `"0x60"`, `"0x"`),
		`[` + codeResp(3, `"0x01"`) + `,` + codeResp(1, `"0x02"`) + `,` + codeResp(2, `"0x03"`) + `]`,
		codeBatchBody(`null`, `"0x"`, `""`),
		codeBatchBody(`"\u0030x\u0036\u0030"`, `"0X6080"`, `" 0x60 "`),
		codeBatchBody(`"0x608"`, `"0x6g"`, `"0x60"`),
		`[` + codeResp(1, `"0x60"`) + `,{"jsonrpc":"2.0","id":2,"error":{"code":-32602,"message":"bad address"}}]`,
		`[` + codeResp(1, `"0x60"`) + `,` + codeResp(2, `"0x60"`) + `]`,
		codeBatchBody(`"0x60"`, `"0x6080"`, `"0x608060"`)[:40],
		`{"jsonrpc":"2.0","id":1,"result":`,
		codeResp(1, `"0x60"`),
		codeResp(1, `[`+fuzzTx+`,`+fuzzTx+`]`),
		codeResp(1, `[]`),
		`{"jsonrpc":"2.0","id":1,"error":{"code":-32000,"message":"filter not found"}}`,
		`{"jsonrpc":"2.0","id":1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		ctx := context.Background()
		addrs := make([]chain.Address, fuzzBatch)
		for i := range addrs {
			addrs[i] = chain.DeriveAddress(1, uint64(i))
		}
		codes, err := cannedClient(body).GetCodeBatch(ctx, addrs)
		wantCodes, wantErr := refGetCodeBatch(body, fuzzBatch)
		if d := sameOutcome(err, wantErr); d != "" {
			t.Fatalf("GetCodeBatch(%q): %s", body, d)
		}
		if err == nil {
			for i := range wantCodes {
				if !bytes.Equal(codes[i], wantCodes[i]) || (codes[i] == nil) != (wantCodes[i] == nil) {
					t.Fatalf("GetCodeBatch(%q) item %d = %#v, reference %#v", body, i, codes[i], wantCodes[i])
				}
			}
		}

		txs, err := cannedClient(body).TxFilterChanges(ctx, "0x1")
		wantTxs, wantErr := refTxFilterChanges(body)
		if d := sameOutcome(err, wantErr); d != "" {
			t.Fatalf("TxFilterChanges(%q): %s", body, d)
		}
		if err == nil && !reflect.DeepEqual(txs, wantTxs) {
			t.Fatalf("TxFilterChanges(%q) = %+v, reference %+v", body, txs, wantTxs)
		}
	})
}

// TestTxQuantityNotUnescapedTwice pins the hex-quantity parse to the decoded
// JSON string: a value whose string content is `0x1` is not a hex
// quantity (an earlier round trip through a second JSON unquote read it as 1).
func TestTxQuantityNotUnescapedTwice(t *testing.T) {
	tx := strings.Replace(fuzzTx, `"value":"0x2a"`, `"value":"0x\\u0031"`, 1)
	if _, err := cannedClient([]byte(codeResp(1, `[`+tx+`]`))).TxFilterChanges(context.Background(), "0x1"); err == nil {
		t.Fatal(`value "0x\\u0031" parsed as a hex quantity`)
	}
}

// TestGetCodeBatchAllocs guards the fetch hot path's allocations: one
// 64-item eth_getCode batch through a client whose transport returns a
// canned body (no server allocations are counted). allocs/op is
// machine-independent. The two-stage RawMessage decode this replaced made
// 714 allocations per batch here; the one-pass decode makes 428, of which
// about 320 are the request's (address strings, params boxing, marshal).
func TestGetCodeBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random")
	}
	const n = 64
	code := `"0x` + strings.Repeat("6080604052", 300) + `"`
	results := make([]string, n)
	addrs := make([]chain.Address, n)
	for i := range results {
		results[i] = code
		addrs[i] = chain.DeriveAddress(2, uint64(i))
	}
	body := []byte(codeBatchBody(results...))
	ctx := context.Background()
	allocs := testing.AllocsPerRun(50, func() {
		c := cannedClient(body) // fresh, so every batch carries ids 1..n
		if _, err := c.GetCodeBatch(ctx, addrs); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 428
	if allocs > ceiling {
		t.Fatalf("GetCodeBatch: %.0f allocs per %d-item batch, ceiling %d", allocs, n, ceiling)
	}
	t.Logf("GetCodeBatch: %.0f allocs per %d-item batch", allocs, n)
}
