package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	ph "github.com/phishinghook/phishinghook"
)

// alertThreshold is the alert threshold of both pipelines (their default).
const alertThreshold = 0.5

// simConfig is the corpus every workload runs on: the paper-scale chain
// (~21k deployments, ~7k unique bytecodes, ~26k txs), or the laptop-scale
// one in smoke mode.
func simConfig(o options) ph.SimulationConfig {
	if o.Smoke {
		return ph.DefaultSimulationConfig(o.Seed)
	}
	return ph.PaperScaleConfig(o.Seed)
}

// trained is a detector plus its serialized form: every pass loads a fresh
// copy from the blob, so each starts with a cold score cache.
type trained struct {
	det  *ph.Detector
	blob []byte
}

func train(model string, ds *ph.Dataset, seed int64) (trained, error) {
	spec, err := ph.ModelByName(model)
	if err != nil {
		return trained{}, err
	}
	det, err := ph.Train(spec, ds, ph.WithDetectorSeed(seed))
	if err != nil {
		return trained{}, fmt.Errorf("train %s: %w", model, err)
	}
	var buf bytes.Buffer
	if err := det.Save(&buf); err != nil {
		return trained{}, fmt.Errorf("save %s: %w", model, err)
	}
	return trained{det: det, blob: buf.Bytes()}, nil
}

func (t trained) load() (*ph.Detector, error) {
	return ph.LoadDetector(bytes.NewReader(t.blob))
}

// repeatSetup runs build n times and returns the median duration plus the
// last build's value; earlier values are released with closeFn. Calibration
// slices run before each build, so set-up time is scaled by the host's
// speed while it ran.
func repeatSetup[T any](n int, cal *calibrator, build func() (T, error), closeFn func(T)) (T, float64, error) {
	var last T
	var times []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			closeFn(last)
		}
		if err := cal.slices(calSetupSlices); err != nil {
			return last, 0, err
		}
		runtime.GC()
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	return last, median(times), nil
}

// codeHash is the hex SHA-256 the pipelines key dedup and alerts on.
func codeHash(code []byte) string {
	h := sha256.Sum256(code)
	return hex.EncodeToString(h[:])
}

// uniqueCodes returns the distinct bytecodes of the raw corpus in first-seen
// order, keyed by code hash.
func uniqueCodes(raw *ph.Dataset) (hashes []string, codes [][]byte) {
	seen := map[string]bool{}
	for _, s := range raw.Samples {
		h := codeHash(s.Bytecode)
		if !seen[h] {
			seen[h] = true
			hashes = append(hashes, h)
			codes = append(codes, s.Bytecode)
		}
	}
	return hashes, codes
}

// heapLiveMB is the live heap after two forced collections (the second
// clears what sync.Pool victim caches held over the first).
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func fileKB(path string) float64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(st.Size()) / 1024
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// fault flips the verdict of the Nth scoring call it sees once armed
// (counting from 0). It exists so the benchmark's tests can prove each
// oracle catches a wrong verdict; runs from the command line never install
// it. Workloads arm it after set-up, so warm-up traffic cannot absorb it.
type fault struct {
	N     int64
	armed atomic.Bool
	calls atomic.Int64
}

func (f *fault) arm() {
	if f != nil {
		f.armed.Store(true)
	}
}

func (f *fault) hit() bool { return f.armed.Load() && f.calls.Add(1)-1 == f.N }

// faultyScorer flips one verdict to the opposite label with full
// confidence, so the alert decision changes at any threshold.
type faultyScorer struct {
	inner ph.CodeScorer
	f     *fault
}

func (s faultyScorer) Score(ctx context.Context, code []byte) (ph.Verdict, error) {
	v, err := s.inner.Score(ctx, code)
	if err == nil && s.f.hit() {
		v.Label, v.Confidence = 1-v.Label, 1
	}
	return v, err
}

// faultyBackend flips one batch item's label behind a ScoreBackend.
type faultyBackend struct {
	ph.ScoreBackend
	f *fault
}

func (b faultyBackend) ScoreBatch(ctx context.Context, codes [][]byte) ([]ph.Verdict, error) {
	vs, err := b.ScoreBackend.ScoreBatch(ctx, codes)
	if err == nil {
		for i := range vs {
			if b.f.hit() {
				vs[i].Label, vs[i].Confidence = 1-vs[i].Label, 1
			}
		}
	}
	return vs, err
}
