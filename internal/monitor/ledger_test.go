package monitor

import (
	"encoding/hex"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

// TestLedgerStateMachine walks one hash through the two states: a claim
// dedups its replays, an unclaim makes it claimable again, and a judgment
// dedups it forever (a late unclaim cannot undo it). Only judged hashes
// count as seen.
func TestLedgerStateMachine(t *testing.T) {
	l := newLedger("", "", 0)
	h := [32]byte{7}
	if claimed, dup := l.Claim(h, nil); !claimed || dup {
		t.Fatalf("first claim = (%v, %v), want claimed", claimed, dup)
	}
	if claimed, dup := l.Claim(h, nil); claimed || !dup {
		t.Fatalf("claim of an in-flight hash = (%v, %v), want dup", claimed, dup)
	}
	if n := l.SeenUnique(); n != 0 {
		t.Fatalf("SeenUnique = %d with only a claim, want 0", n)
	}
	l.Unclaim(h)
	if claimed, _ := l.Claim(h, nil); !claimed {
		t.Fatal("unclaimed hash is not claimable again")
	}
	l.Judge(h, "v2")
	l.Unclaim(h)
	for i := 0; i < 2; i++ {
		if claimed, dup := l.Claim(h, nil); claimed || !dup {
			t.Fatalf("claim of a judged hash = (%v, %v), want dup", claimed, dup)
		}
	}
	l.Judge(h, "") // giving up on an item keeps the recorded version
	if n, v := l.SeenUnique(), l.ModelVersion(); n != 1 || v != "v2" {
		t.Fatalf("SeenUnique, ModelVersion = %d, %q; want 1, v2", n, v)
	}
}

// TestLedgerSnapshotExcludesClaimed saves a ledger holding one judged and
// one claimed hash: only the judged one reaches the checkpoint, with the
// owner's cursor, the model version and the modality.
func TestLedgerSnapshotExcludesClaimed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp")
	l, cursor, err := OpenLedger(path, TxModality, 0, 5)
	if err != nil || cursor != 5 {
		t.Fatalf("fresh ledger: cursor %d, err %v; want the start block 5", cursor, err)
	}
	judged, inFlight := [32]byte{1}, [32]byte{2}
	l.Claim(judged, nil)
	l.Judge(judged, "v9")
	l.Claim(inFlight, nil)
	if err := l.Save(41); err != nil {
		t.Fatal(err)
	}
	cp, ok, err := loadCheckpoint(path)
	if err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	if cp.Cursor != 41 || cp.ModelVersion != "v9" || cp.Modality != TxModality {
		t.Fatalf("checkpoint = %+v", cp)
	}
	if len(cp.Seen) != 1 || cp.Seen[0] != hex.EncodeToString(judged[:]) {
		t.Fatalf("seen = %v, want only the judged hash", cp.Seen)
	}
}

// TestLedgerRestoreCountsJudged reopens a saved ledger: the cursor, model
// version and judged count come back, the restored hashes dedup, and a
// new hash is still claimable.
func TestLedgerRestoreCountsJudged(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp")
	l, _, err := OpenLedger(path, "", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := byte(1); i <= 3; i++ {
		l.Judge([32]byte{i}, "v1")
	}
	if err := l.Save(100); err != nil {
		t.Fatal(err)
	}
	r, cursor, err := OpenLedger(path, "", 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if cursor != 100 || r.SeenUnique() != 3 || r.ModelVersion() != "v1" {
		t.Fatalf("restored cursor %d, %d judged, version %q; want 100, 3, v1", cursor, r.SeenUnique(), r.ModelVersion())
	}
	if _, dup := r.Claim([32]byte{2}, nil); !dup {
		t.Fatal("restored hash is not a dedup hit")
	}
	if claimed, _ := r.Claim([32]byte{4}, nil); !claimed {
		t.Fatal("new hash not claimable after restore")
	}
	if r.SeenUnique() != 3 {
		t.Fatalf("a claim changed the judged count to %d", r.SeenUnique())
	}
}

// TestLedgerShedNeverDedups races clones of the same hashes into a queue too
// small for all of them, the way the pipeline's DropWhenFull policy does: a
// hash whose item was shed must never have been counted as a dedup hit, so
// every hash that drew a dedup hit was admitted by some claim.
func TestLedgerShedNeverDedups(t *testing.T) {
	const hashes, clones = 64, 8
	l := newLedger("", "", 0)
	queue := make(chan int, hashes/4)
	var admitted, dups [hashes]atomic.Int32
	var wg sync.WaitGroup
	for c := 0; c < clones; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < hashes; i++ {
				_, dup := l.Claim([32]byte{byte(i)}, func() bool {
					select {
					case queue <- i:
						admitted[i].Add(1)
						return true
					default:
						return false
					}
				})
				if dup {
					dups[i].Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if len(queue) != cap(queue) {
		t.Fatalf("queue holds %d of %d: nothing was shed, the race proves nothing", len(queue), cap(queue))
	}
	for i := 0; i < hashes; i++ {
		if n := admitted[i].Load(); n > 1 {
			t.Fatalf("hash %d admitted %d times", i, n)
		}
		if dups[i].Load() > 0 && admitted[i].Load() == 0 {
			t.Fatalf("hash %d drew %d dedup hits but every claim of it was shed", i, dups[i].Load())
		}
	}
}

// TestLedgerDueBooksOneSave calls Due from many goroutines at once, the way
// backfill shards commit windows: exactly one is told to save per cadence.
func TestLedgerDueBooksOneSave(t *testing.T) {
	l := newLedger(filepath.Join(t.TempDir(), "cp"), "", 0)
	var due atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if l.Due() {
				due.Add(1)
			}
		}()
	}
	wg.Wait()
	if n := due.Load(); n != 1 {
		t.Fatalf("%d goroutines told to save, want 1", n)
	}
	if newLedger("", "", 0).Due() {
		t.Fatal("an in-memory ledger reported a save due")
	}
}
