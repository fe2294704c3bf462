package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	ph "github.com/phishinghook/phishinghook"
)

// passResult is one pass (backfill) or drain (txwatch), reduced to scalars
// as the pass ends, so the heap measured after the last pass holds none of
// the earlier passes' alert data however many passes the run fits.
type passResult struct {
	elapsed    time.Duration
	alertP50MS float64 // time from pass start to an alert, median
	alertP90MS float64
	mismatches int64
	checkKB    float64
	queueP99   float64
	dedupRatio float64
	alerts     float64
	cacheHit   float64
	polls      float64
	seenUnique float64
	// alertDigest is a SHA-256 over the sorted alerted keys (code hash or
	// tx hash), so tests can compare alert sets across runs.
	alertDigest string
	// alertList is the drain's alerts, kept for the WAL replay on the last
	// traced txwatch drain only.
	alertList []ph.Alert
	// live is the pass's Backfill or TxWatcher, kept reachable until the
	// heap is read, so heap_live_mb includes its seen set.
	live any
}

// summarizeAlerts reduces a pass's alerts to res's scalars: alert-latency
// percentiles from t0, the alert-set digest and, when want is set, the
// oracle mismatches. key names an alert (code hash or tx hash).
func summarizeAlerts(res *passResult, alerts []ph.Alert, key func(ph.Alert) string, t0 time.Time, want map[string]bool) {
	counts := map[string]int{}
	ms := make([]float64, 0, len(alerts))
	for _, a := range alerts {
		counts[key(a)]++
		ms = append(ms, float64(a.Time.Sub(t0))/1e6)
	}
	res.alertP50MS, res.alertP90MS = quantile(ms, 0.5), quantile(ms, 0.9)
	h := sha256.New()
	for _, k := range sortedKeys(counts) {
		h.Write([]byte(k))
		h.Write([]byte{'\n'})
	}
	res.alertDigest = hex.EncodeToString(h.Sum(nil))
	if want != nil {
		res.mismatches = setMismatches(counts, want)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// setMismatches counts missing keys, unexpected keys and repeats (each key
// must alert exactly once).
func setMismatches(got map[string]int, want map[string]bool) int64 {
	var n int64
	for k, c := range got {
		if !want[k] {
			n += int64(c)
		} else if c > 1 {
			n += int64(c - 1)
		}
	}
	for k := range want {
		if got[k] == 0 {
			n++
		}
	}
	return n
}

func readAlerts(path string) ([]ph.Alert, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []ph.Alert
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var a ph.Alert
		if err := json.Unmarshal(sc.Bytes(), &a); err != nil {
			return nil, fmt.Errorf("alert file %s: %w", path, err)
		}
		out = append(out, a)
	}
	return out, sc.Err()
}

// sample calls fn every period until the returned stop function is called;
// stop returns once the sampler has exited.
func sample(period time.Duration, fn func()) (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		tk := time.NewTicker(period)
		defer tk.Stop()
		for {
			select {
			case <-done:
				return
			case <-tk.C:
				fn()
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// passEnv is the set-up state of a workload measured in passes.
type passEnv interface {
	close()
	computeOracle() error
}

// passRun is the measured part of a pass workload.
type passRun struct {
	tr                *tracer // nil in untraced runs
	plain, traced     []*passResult
	attempted, failed int64
	endToEnd          map[string]metric
	overheadPct       float64 // traced runs: untraced over traced rate, minus 1
	alertP90MS        float64 // recorded, not gated: the tail tracks host noise
	wall              map[string]any
}

// heapAfterPasses is the pass after which heap_live_mb is read: a fixed
// count, so the reading does not depend on how many passes a run fits.
const heapAfterPasses = 3

// measurePasses sets the workload up o.Setups times (setup_s is the
// median), derives the oracle, then repeats pass until the measured seconds
// are used up. In a traced run passes alternate untraced/traced, so the
// tracing overhead is measured against interleaved untraced passes. items
// is the work in one pass (contracts or txs). The caller closes the env.
func measurePasses[E passEnv](o options, setup func(options, *tracer) (E, error), items func(E) int,
	pass func(e E, tr *tracer, idx int) (*passResult, error)) (E, *passRun, error) {
	r := &passRun{}
	if o.Trace {
		r.tr = newTracer()
	}
	e, setupS, err := repeatSetup(o.Setups, o.Cal, func() (E, error) { return setup(o, r.tr) }, E.close)
	if err != nil {
		return e, nil, err
	}
	if err := e.computeOracle(); err != nil {
		e.close()
		return e, nil, err
	}
	minPasses := 3
	if r.tr != nil {
		r.tr.reset()
		minPasses = 4
	}
	o.Fault.arm()
	deadline := time.Now().Add(time.Duration(o.Seconds * float64(time.Second)))
	var heap float64
	var lastTraced *passResult
	for i := 0; i < minPasses || time.Now().Before(deadline); i++ {
		var ptr *tracer
		if i%2 == 1 {
			ptr = r.tr
		}
		if err := o.Cal.slices(calPassSlices); err != nil {
			e.close()
			return e, nil, err
		}
		res, err := pass(e, ptr, i+1)
		if err != nil {
			e.close()
			return e, nil, fmt.Errorf("pass %d: %w", i+1, err)
		}
		if i+1 == heapAfterPasses {
			heap = heapLiveMB() // with this pass's watcher still live
		}
		res.live = nil
		if ptr != nil {
			if lastTraced != nil {
				lastTraced.alertList = nil // the WAL replays the last traced drain only
			}
			lastTraced = res
			r.traced = append(r.traced, res)
		} else {
			r.plain = append(r.plain, res)
		}
	}

	n := items(e)
	rate, p50, p90, mism := passSummary(r.plain, n)
	trRate, _, _, trMism := passSummary(r.traced, n)
	r.alertP90MS = p90
	r.attempted = int64(n * (len(r.plain) + len(r.traced)))
	r.failed = mism + trMism
	if r.tr != nil {
		r.overheadPct = (rate/trRate - 1) * 100
	}
	r.endToEnd, r.wall = o.Cal.endToEnd(setupS, rate, p50, heap)
	return e, r, nil
}

// passSummary reduces passes to the end-to-end metrics: per-pass rates and
// alert-latency percentiles, each the median over passes.
func passSummary(passes []*passResult, items int) (rate, p50, p90 float64, mism int64) {
	var rates, p50s, p90s []float64
	for _, r := range passes {
		rates = append(rates, float64(items)/r.elapsed.Seconds())
		p50s = append(p50s, r.alertP50MS)
		p90s = append(p90s, r.alertP90MS)
		mism += r.mismatches
	}
	return median(rates), median(p50s), median(p90s), mism
}
