package monitor

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzDecodeCheckpoint feeds arbitrary bytes to the checkpoint decoder, the
// one parser that reads state a crash may have torn. Nothing may panic —
// neither the decoder nor the ledger's seen-hash decode — and any input that
// decodes must re-encode and decode to the same value.
func FuzzDecodeCheckpoint(f *testing.F) {
	seen := []string{strings.Repeat("ab", 32), strings.Repeat("01", 32)}
	watcher, err := encodeCheckpoint(checkpoint{Cursor: 42, ModelVersion: "v7", Seen: seen})
	if err != nil {
		f.Fatal(err)
	}
	backfill, err := encodeCheckpoint(checkpoint{Cursor: 9, Seen: seen[:1], Shards: []shardMark{
		{From: 1, To: 10, Cursor: 9}, {From: 11, To: 20, Cursor: 20},
	}})
	if err != nil {
		f.Fatal(err)
	}
	tx, err := encodeCheckpoint(checkpoint{Cursor: 300, ModelVersion: "v1", Modality: TxModality, Seen: seen})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(watcher)
	f.Add(backfill)
	f.Add(tx)
	f.Add([]byte(`{"version":1,"cursor":77}`))
	f.Add(watcher[:len(watcher)/2])

	f.Fuzz(func(t *testing.T, blob []byte) {
		cp, err := decodeCheckpoint("fuzz", blob)
		if err != nil {
			return
		}
		_ = newLedger("", cp.Modality, 0).restore(cp)
		enc, err := encodeCheckpoint(cp)
		if err != nil {
			t.Fatalf("decoded checkpoint does not re-encode: %v", err)
		}
		again, err := decodeCheckpoint("fuzz", enc)
		if err != nil {
			t.Fatalf("re-encoded checkpoint does not decode: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(emptyAsNil(cp), emptyAsNil(again)) {
			t.Fatalf("round trip changed the checkpoint:\n got %+v\nwant %+v", again, cp)
		}
	})
}

// emptyAsNil folds empty lists into nil: the encoder omits both, so the
// distinction cannot survive a round trip and carries no state.
func emptyAsNil(cp checkpoint) checkpoint {
	if len(cp.Seen) == 0 {
		cp.Seen = nil
	}
	if len(cp.Shards) == 0 {
		cp.Shards = nil
	}
	return cp
}
