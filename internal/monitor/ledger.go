package monitor

import (
	"encoding/hex"
	"fmt"
	"sync"
	"time"
)

// TxModality marks the tx watcher's checkpoints. The contract workloads
// (watcher and backfill) use the empty modality, which every checkpoint
// written before modalities existed carries.
const TxModality = "tx"

// Ledger is the exactly-once state of one ingestion workload: the dedup set,
// the model version of the latest judgment, and the checkpoint that carries
// both across restarts. The contract pipeline and the tx watcher share it;
// each keeps its own cursor (handed to Save) and its own failure policy.
//
// A hash is in one of two states. Claimed: a judgment is in flight — the
// hash already dedups, so a clone or replay cannot be judged twice, but it
// is not persisted, because a kill mid-judgment must re-judge it after the
// restart. Judged: durably decided — persisted and a dedup hit forever.
//
// Safe for concurrent use.
type Ledger struct {
	path     string // "" keeps the state in memory only
	modality string
	every    time.Duration

	mu       sync.Mutex
	seen     map[[32]byte]bool // false = claimed, true = judged
	judged   int               // count of true entries, for O(1) stats and snapshot sizing
	version  string
	lastSave time.Time
}

// defaultCheckpointEvery is the save cadence when the owner's config leaves
// CheckpointEvery unset.
const defaultCheckpointEvery = time.Second

func newLedger(path, modality string, every time.Duration) *Ledger {
	if every <= 0 {
		every = defaultCheckpointEvery
	}
	return &Ledger{path: path, modality: modality, every: every, seen: make(map[[32]byte]bool)}
}

// OpenLedger opens the exactly-once state checkpointed at path (empty: in
// memory only, never saved) for the given modality. It returns the
// checkpoint's cursor, or start when there is no checkpoint. A checkpoint
// written by another modality is refused: the cursors index different logs.
// Periodic saves (Due) happen at most every every (default 1s).
func OpenLedger(path, modality string, every time.Duration, start uint64) (*Ledger, uint64, error) {
	l, cp, ok, err := openLedger(path, modality, every)
	if !ok {
		return l, start, err
	}
	return l, cp.Cursor, nil
}

// openLedger is OpenLedger returning the whole loaded checkpoint (minus its
// seen hashes, which now live in the ledger), so a backfill can resume its
// shard marks.
func openLedger(path, modality string, every time.Duration) (*Ledger, checkpoint, bool, error) {
	l := newLedger(path, modality, every)
	if path == "" {
		return l, checkpoint{}, false, nil
	}
	cp, ok, err := loadCheckpoint(path)
	if err != nil {
		return nil, checkpoint{}, false, err
	}
	if !ok {
		return l, checkpoint{}, false, nil
	}
	if cp.Modality != modality {
		return nil, checkpoint{}, false, fmt.Errorf("monitor: checkpoint %s has modality %q, want %q", path, cp.Modality, modality)
	}
	if err := l.restore(cp); err != nil {
		return nil, checkpoint{}, false, fmt.Errorf("monitor: checkpoint %s: %w", path, err)
	}
	cp.Seen = nil
	return l, cp, true, nil
}

// restore installs a checkpoint's seen hashes as judged and its model
// version.
func (l *Ledger) restore(cp checkpoint) error {
	hashes := make([][32]byte, len(cp.Seen))
	for i, s := range cp.Seen {
		b, err := hex.DecodeString(s)
		if err != nil || len(b) != 32 {
			return fmt.Errorf("bad dedup hash %q", s)
		}
		copy(hashes[i][:], b)
	}
	l.mu.Lock()
	for _, h := range hashes {
		if !l.seen[h] {
			l.seen[h] = true
			l.judged++
		}
	}
	l.version = cp.ModelVersion
	l.mu.Unlock()
	return nil
}

// Claim records h as claimed and reports claimed=true, or reports dup=true
// when h is already claimed or judged. A non-nil admit runs under the
// ledger lock once h is known to be new, and h is recorded only if admit
// returns true (claimed and dup both false: the owner shed the item).
// Deciding admission and recording the hash in one critical section means a
// concurrent clone can never count as a dedup hit against an item that ends
// up shed.
func (l *Ledger) Claim(h [32]byte, admit func() bool) (claimed, dup bool) {
	l.mu.Lock()
	_, dup = l.seen[h]
	if !dup && (admit == nil || admit()) {
		l.seen[h] = false
		claimed = true
	}
	l.mu.Unlock()
	return claimed, dup
}

// Unclaim forgets a claimed hash whose judgment never happened, so a rescan
// or replay judges it again. A judged hash stays.
func (l *Ledger) Unclaim(h [32]byte) {
	l.mu.Lock()
	if judged, ok := l.seen[h]; ok && !judged {
		delete(l.seen, h)
	}
	l.mu.Unlock()
}

// Judge marks h durably decided by the given model version. An owner that
// gives up on an unscorable item judges it with version "" so it is never
// retried; the recorded version then stands.
func (l *Ledger) Judge(h [32]byte, version string) {
	l.mu.Lock()
	if !l.seen[h] {
		l.seen[h] = true
		l.judged++
	}
	if version != "" {
		l.version = version
	}
	l.mu.Unlock()
}

// SeenUnique returns the number of judged hashes.
func (l *Ledger) SeenUnique() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.judged
}

// ModelVersion returns the version of the latest judgment, restored from the
// checkpoint on resume ("" until a versioned scorer has judged something).
func (l *Ledger) ModelVersion() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.version
}

// Due reports whether a periodic checkpoint is due (the last was at least
// every ago) and, if so, books it: of many goroutines committing progress
// at once, only one is told to save. Always false without a path.
func (l *Ledger) Due() bool {
	if l.path == "" {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if time.Since(l.lastSave) < l.every {
		return false
	}
	l.lastSave = time.Now()
	return true
}

// Save checkpoints cursor with the judged hashes and the model version (a
// no-op without a path). Claimed hashes are left out: a kill mid-judgment
// must replay them. The owner reads its cursor before calling, so a hash
// judged in between only adds a harmless dedup hit after a restart.
func (l *Ledger) Save(cursor uint64) error {
	return l.save(checkpoint{Cursor: cursor})
}

// save completes the owner's part of a checkpoint (cursor, shard marks) with
// the ledger's and writes it. Only the hash copy runs under the lock; hex
// encoding, JSON and the file write run outside it, so claims never stall
// on checkpoint I/O.
func (l *Ledger) save(cp checkpoint) error {
	if l.path == "" {
		return nil
	}
	l.mu.Lock()
	hashes := make([][32]byte, 0, l.judged)
	for h, judged := range l.seen {
		if judged {
			hashes = append(hashes, h)
		}
	}
	cp.ModelVersion = l.version
	l.mu.Unlock()
	cp.Modality = l.modality
	cp.Seen = make([]string, len(hashes))
	for i, h := range hashes {
		cp.Seen[i] = hex.EncodeToString(h[:])
	}
	return saveCheckpoint(l.path, cp)
}
