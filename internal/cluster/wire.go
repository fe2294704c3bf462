package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"github.com/phishinghook/phishinghook/internal/evm"
)

// The scoring wire format. A replica (the root package's NewScoreHandler)
// and the router serve POST /score and POST /score/tx with these types and
// the decoders below, so any client can point at a router instead of a
// single replica without changing a byte.

// ScoreRequest is the POST /score payload: one bytecode, a batch, or both.
// When both fields are set, the request is treated as a batch of
// [bytecode, bytecodes...]: every entry is scored, `verdicts` aligns with
// that concatenation, and `verdict` carries the `bytecode` entry's verdict.
type ScoreRequest struct {
	// Bytecode is one 0x-prefixed hex bytecode.
	Bytecode string `json:"bytecode,omitempty"`
	// Bytecodes is a batch of 0x-prefixed hex bytecodes.
	Bytecodes []string `json:"bytecodes,omitempty"`
}

// Verdict is the wire form of one scoring decision.
type Verdict struct {
	Label      string  `json:"label"`
	Phishing   bool    `json:"phishing"`
	Confidence float64 `json:"confidence"`
	Model      string  `json:"model"`
	// ModelVersion is the lifecycle version that scored (omitted when
	// serving a bare, unversioned Detector).
	ModelVersion string `json:"model_version,omitempty"`
	// Modality distinguishes the scored artifact: omitted (implicitly
	// "contract") for bytecode verdicts — keeping existing contract verdict
	// JSON byte-for-byte identical — or "tx" for fused transaction verdicts.
	Modality string `json:"modality,omitempty"`
	// PayloadProb and CodeProb are the fused tx verdict's components
	// (tx modality only; a zero contribution — empty calldata, EOA callee —
	// is omitted).
	PayloadProb float64 `json:"payload_prob,omitempty"`
	CodeProb    float64 `json:"code_prob,omitempty"`
	// Evasion telemetry (WithEvasionTelemetry only). All omitempty: a
	// detector without telemetry emits verdict JSON byte-for-byte identical
	// to before the fields existed.
	DeadCodeRatio   float64 `json:"dead_code_ratio,omitempty"`
	ScoreDivergence float64 `json:"score_divergence,omitempty"`
	EvasionSuspect  bool    `json:"evasion_suspect,omitempty"`
}

// ScoreResponse is the /score and /score/tx reply. Verdicts aligns with the
// request order ([single, batch...]); Verdict is set whenever the request's
// single field was present and points at that entry's verdict.
type ScoreResponse struct {
	Verdict   *Verdict  `json:"verdict,omitempty"`
	Verdicts  []Verdict `json:"verdicts"`
	ElapsedMS float64   `json:"elapsed_ms"`
}

// TxScoreItem is one transaction to judge: its calldata plus (optionally)
// its callee's deployed bytecode. Either side may be empty — a plain value
// transfer has no calldata, an EOA callee has no code.
type TxScoreItem struct {
	// Calldata is the 0x-prefixed hex transaction input.
	Calldata string `json:"calldata,omitempty"`
	// Code is the callee's 0x-prefixed hex deployed bytecode.
	Code string `json:"code,omitempty"`
}

// TxScoreRequest is the POST /score/tx payload: one transaction, a batch, or
// both (the single tx joins the batch at position 0, as on /score).
type TxScoreRequest struct {
	Tx  *TxScoreItem  `json:"tx,omitempty"`
	Txs []TxScoreItem `json:"txs,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
	// Kind is a machine-readable tag on typed policy rejections (e.g.
	// "bytecode_too_large"); empty — and omitted — on ordinary errors.
	Kind string `json:"kind,omitempty"`
}

// MaxScoreBatch bounds one request's batch size and MaxScoreBodyBytes one
// request's wire size (backpressure; larger workloads should stream
// multiple requests). Deployed EVM bytecode tops out at 24KB (48KB hex),
// so the body limit comfortably fits a full batch.
const (
	MaxScoreBatch     = 1024
	MaxScoreBodyBytes = 64 << 20
)

// Per-item input hardening. A deployed EVM contract is capped at 24576
// bytes by EIP-170, so anything larger is not bytecode that can exist on
// chain — reject it at the boundary instead of burning featurizer time on
// it. Calldata has no protocol cap, but block gas limits keep honest
// payloads far below 128KB; the cap bounds worst-case work per item. Both
// rejections are typed ("kind" in the error body) so clients can tell a
// policy rejection from a malformed request. The router and the replica
// both run the decoders below, so a hostile item is refused before it
// reaches a replica.
const (
	MaxScoreItemBytes  = 24576
	MaxTxCalldataBytes = 128 << 10
)

const (
	ErrKindBytecodeTooLarge = "bytecode_too_large"
	ErrKindCalldataTooLarge = "calldata_too_large"
)

// ScoreBatch is a validated /score request.
type ScoreBatch struct {
	Hexes  []string // the bytecodes as sent, [bytecode, bytecodes...]
	Codes  [][]byte // Hexes decoded; each non-empty and within the EIP-170 cap
	Single bool     // the `bytecode` field was set; its verdict is Verdicts[0]
}

// TxBatch is a validated /score/tx request. Calldata and Code align with
// Items; an empty hex side decodes to nil.
type TxBatch struct {
	Items    []TxScoreItem // the transactions as sent, [tx, txs...]
	Calldata [][]byte
	Code     [][]byte
	Single   bool // the `tx` field was set; its verdict is Verdicts[0]
}

// DecodeScoreRequest reads and validates a POST /score request. On failure
// it has already answered the client (405, 400, or 413 with a typed kind
// for an over-cap bytecode) and returns false.
func DecodeScoreRequest(w http.ResponseWriter, r *http.Request) (ScoreBatch, bool) {
	var req ScoreRequest
	if !decodeBody(w, r, &req) {
		return ScoreBatch{}, false
	}
	b := ScoreBatch{Hexes: req.Bytecodes, Single: req.Bytecode != ""}
	if b.Single {
		b.Hexes = append([]string{req.Bytecode}, b.Hexes...)
	}
	if !checkBatchSize(w, len(b.Hexes), "bytecode") {
		return ScoreBatch{}, false
	}
	b.Codes = make([][]byte, len(b.Hexes))
	for i, h := range b.Hexes {
		code, err := evm.DecodeHex(h)
		if err != nil {
			WriteError(w, http.StatusBadRequest, "bytecode %d: %v", i, err)
			return ScoreBatch{}, false
		}
		if len(code) == 0 {
			WriteError(w, http.StatusBadRequest, "bytecode %d: empty", i)
			return ScoreBatch{}, false
		}
		if len(code) > MaxScoreItemBytes {
			WriteErrorKind(w, http.StatusRequestEntityTooLarge, ErrKindBytecodeTooLarge,
				"bytecode %d: %d bytes exceeds the EIP-170 deployed-code cap %d", i, len(code), MaxScoreItemBytes)
			return ScoreBatch{}, false
		}
		b.Codes[i] = code
	}
	return b, true
}

// DecodeTxScoreRequest reads and validates a POST /score/tx request with the
// same envelope rules as DecodeScoreRequest. Either side of a tx may be
// empty, but both must parse and stay within their caps.
func DecodeTxScoreRequest(w http.ResponseWriter, r *http.Request) (TxBatch, bool) {
	var req TxScoreRequest
	if !decodeBody(w, r, &req) {
		return TxBatch{}, false
	}
	b := TxBatch{Items: req.Txs, Single: req.Tx != nil}
	if b.Single {
		b.Items = append([]TxScoreItem{*req.Tx}, b.Items...)
	}
	if !checkBatchSize(w, len(b.Items), "tx") {
		return TxBatch{}, false
	}
	b.Calldata = make([][]byte, len(b.Items))
	b.Code = make([][]byte, len(b.Items))
	for i, it := range b.Items {
		var err error
		if it.Calldata != "" {
			if b.Calldata[i], err = evm.DecodeHex(it.Calldata); err != nil {
				WriteError(w, http.StatusBadRequest, "tx %d calldata: %v", i, err)
				return TxBatch{}, false
			}
			if len(b.Calldata[i]) > MaxTxCalldataBytes {
				WriteErrorKind(w, http.StatusRequestEntityTooLarge, ErrKindCalldataTooLarge,
					"tx %d: calldata of %d bytes exceeds cap %d", i, len(b.Calldata[i]), MaxTxCalldataBytes)
				return TxBatch{}, false
			}
		}
		if it.Code != "" {
			if b.Code[i], err = evm.DecodeHex(it.Code); err != nil {
				WriteError(w, http.StatusBadRequest, "tx %d code: %v", i, err)
				return TxBatch{}, false
			}
			if len(b.Code[i]) > MaxScoreItemBytes {
				WriteErrorKind(w, http.StatusRequestEntityTooLarge, ErrKindBytecodeTooLarge,
					"tx %d: code of %d bytes exceeds the EIP-170 deployed-code cap %d", i, len(b.Code[i]), MaxScoreItemBytes)
				return TxBatch{}, false
			}
		}
	}
	return b, true
}

// decodeBody enforces POST and the body limit, then decodes the JSON
// envelope into v.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return false
	}
	body := http.MaxBytesReader(w, r.Body, MaxScoreBodyBytes)
	if err := json.NewDecoder(body).Decode(v); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		WriteError(w, status, "bad JSON: %v", err)
		return false
	}
	return true
}

// checkBatchSize rejects an empty or over-limit batch of noun items.
func checkBatchSize(w http.ResponseWriter, n int, noun string) bool {
	switch {
	case n == 0:
		WriteError(w, http.StatusBadRequest, "no %s in request", noun)
		return false
	case n > MaxScoreBatch:
		WriteError(w, http.StatusRequestEntityTooLarge, "batch of %d exceeds limit %d", n, MaxScoreBatch)
		return false
	}
	return true
}

// WriteScoreResponse answers a scored request: verdicts in request order,
// the single-field verdict when the request carried one, and the time spent
// since t0.
func WriteScoreResponse(w http.ResponseWriter, verdicts []Verdict, single bool, t0 time.Time) {
	resp := ScoreResponse{
		Verdicts:  verdicts,
		ElapsedMS: float64(time.Since(t0).Microseconds()) / 1000,
	}
	if single {
		resp.Verdict = &resp.Verdicts[0]
	}
	WriteJSON(w, http.StatusOK, resp)
}

// WriteJSON answers status with v as the JSON body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError answers status with an {"error": ...} body.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// WriteErrorKind is WriteError plus the machine-readable "kind" tag, so
// clients can branch on policy rejections without parsing the message.
func WriteErrorKind(w http.ResponseWriter, status int, kind, format string, args ...any) {
	WriteJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...), Kind: kind})
}
