package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"path/filepath"
	"time"

	ph "github.com/phishinghook/phishinghook"
)

// backfillEnv is the set-up state of backfill-cold.
type backfillEnv struct {
	sim       *ph.Simulation
	rf        trained
	rpcURL    string // plain node endpoint, no rate limit
	from, to  uint64
	contracts int

	// Traced runs only: a wrapped endpoint and a timing proxy in front of
	// the explorer.
	tracedRPC, tracedExplorer string
	proxy                     *httptest.Server

	// The oracle, computed once after set-up: the unique bytecodes and
	// the code hashes that must alert. A nil want skips the check (warm-up).
	unique [][]byte
	want   map[string]bool
}

func (e *backfillEnv) close() {
	if e.proxy != nil {
		e.proxy.Close()
	}
	e.sim.Close()
}

func setupBackfill(o options, tr *tracer) (*backfillEnv, error) {
	sim, err := ph.StartSimulation(simConfig(o))
	if err != nil {
		return nil, err
	}
	e := &backfillEnv{sim: sim, contracts: sim.NumContracts()}
	e.from, e.to = sim.StudyWindow()
	if e.rf, err = train("Random Forest", sim.Dataset(), o.Seed); err != nil {
		sim.Close()
		return nil, err
	}
	e.rpcURL = sim.AddWrappedRPCEndpoints(1, nil)[0]
	if tr != nil {
		e.tracedRPC = sim.AddWrappedRPCEndpoints(1, func(_ int, h http.Handler) http.Handler {
			return tracedRPC(tr, h)
		})[0]
		target, err := url.Parse(sim.ExplorerURL())
		if err != nil {
			e.close()
			return nil, err
		}
		e.proxy = httptest.NewServer(tracedHandler(tr, lExplorer, lWorkload, httputil.NewSingleHostReverseProxy(target)))
		e.tracedExplorer = e.proxy.URL
	}
	// Warm-up: one untimed pass brings connections, page cache and the Go
	// runtime to steady state.
	if _, err := e.pass(context.Background(), o, nil, 0); err != nil {
		e.close()
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	return e, nil
}

// pass runs one backfill over the whole study window with a freshly loaded
// detector (cold cache), a new checkpoint file and a new JSONL sink, and
// checks its alerts against the oracle (skipped while e.want is nil, for
// the warm-up pass).
func (e *backfillEnv) pass(ctx context.Context, o options, tr *tracer, idx int) (*passResult, error) {
	det, err := e.rf.load()
	if err != nil {
		return nil, err
	}
	var scorer ph.CodeScorer = det
	if o.Fault != nil {
		scorer = faultyScorer{inner: det, f: o.Fault}
	}
	dir := filepath.Join(o.Dir, fmt.Sprintf("backfill-%d", idx))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	alertsPath, ckpt := filepath.Join(dir, "alerts.jsonl"), filepath.Join(dir, "backfill.ckpt")
	jsonl, err := ph.OpenJSONLSink(alertsPath)
	if err != nil {
		return nil, err
	}
	var sink ph.AlertSink = jsonl
	rpcURL, explorer := e.rpcURL, e.sim.ExplorerURL()
	if tr != nil {
		scorer = tracedScorer{t: tr, layer: lDetector, inner: scorer}
		sink = tracedSink{t: tr, layer: lSink, inner: sink}
		rpcURL, explorer = e.tracedRPC, e.tracedExplorer
	}
	b, err := ph.NewBackfill(scorer, ph.BackfillConfig{
		RPCURLs:        []string{rpcURL},
		ExplorerURL:    explorer,
		From:           e.from,
		To:             e.to,
		Threshold:      alertThreshold,
		Sinks:          []ph.AlertSink{sink},
		CheckpointPath: ckpt,
	})
	if err != nil {
		jsonl.Close()
		return nil, err
	}

	var depths []float64
	stopSampling := func() {}
	if tr != nil {
		stopSampling = sample(2*time.Millisecond, func() { depths = append(depths, float64(b.Stats().QueueDepth)) })
	}
	var sp activeSpan
	if tr != nil {
		sp = tr.beginWorkload()
		ctx = tr.within(ctx, sp)
	}
	t0 := time.Now()
	runErr := b.Run(ctx)
	elapsed := time.Since(t0)
	if tr != nil {
		sp.end()
	}
	stopSampling()
	if err := jsonl.Close(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		return nil, runErr
	}

	res := &passResult{elapsed: elapsed, checkKB: fileKB(ckpt), queueP99: quantile(depths, 0.99), live: b}
	st := b.Stats()
	if st.ContractsSeen > 0 {
		res.dedupRatio = float64(st.DedupHits) / float64(st.ContractsSeen)
	}
	res.alerts = float64(st.Alerts)
	if hits, misses := det.CacheStats(); hits+misses > 0 {
		res.cacheHit = float64(hits) / float64(hits+misses)
	}
	alerts, err := readAlerts(alertsPath)
	if err != nil {
		return nil, err
	}
	summarizeAlerts(res, alerts, func(a ph.Alert) string { return a.CodeHash }, t0, e.want)
	return res, nil
}

// computeOracle derives the backfill oracle: the code hashes an offline
// Detector.ScoreBatch over the unique bytecodes puts above the threshold.
func (e *backfillEnv) computeOracle() error {
	hashes, codes := uniqueCodes(e.sim.RawDataset())
	vs, err := e.rf.det.ScoreBatch(context.Background(), codes)
	if err != nil {
		return fmt.Errorf("backfill oracle: %w", err)
	}
	e.unique = codes
	e.want = map[string]bool{}
	for i, v := range vs {
		if v.IsPhishing() && v.Confidence >= alertThreshold {
			e.want[hashes[i]] = true
		}
	}
	return nil
}

func runBackfill(o options) (*outcome, error) {
	e, r, err := measurePasses(o, setupBackfill, func(e *backfillEnv) int { return e.contracts },
		func(e *backfillEnv, tr *tracer, idx int) (*passResult, error) {
			return e.pass(context.Background(), o, tr, idx)
		})
	if err != nil {
		return nil, err
	}
	defer e.close()
	out := &outcome{
		Attempted: r.attempted,
		Failed:    r.failed,
		EndToEnd:  r.endToEnd,
		Record: map[string]any{
			"contracts":            e.contracts,
			"unique_bytecodes":     len(e.unique),
			"expected_alerts":      len(e.want),
			"passes":               len(r.plain),
			"wall_clock":           r.wall,
			"window":               []uint64{e.from, e.to},
			"alert_latency_p90_ms": r.alertP90MS,
		},
	}
	if r.tr == nil {
		return out, nil
	}
	layers := zeroLayers()
	fillTracerLayers(layers, r.tr)
	last := r.traced[len(r.traced)-1]
	var qs, dedup []float64
	for _, p := range r.traced {
		qs = append(qs, p.queueP99)
		dedup = append(dedup, p.dedupRatio)
	}
	set(layers, "monitor.queue_depth_p99", median(qs))
	set(layers, "monitor.dedup_hit_ratio", median(dedup))
	set(layers, "monitor.alerts", last.alerts)
	set(layers, "monitor.checkpoint_kb", last.checkKB)
	set(layers, "detector.cache_hit_ratio", last.cacheHit)
	set(layers, "trace.overhead_pct", r.overheadPct)

	// Replays: the ethrpc client over the workload's address batches, and
	// the evm/features/models layers over its unique bytecodes.
	addrs := make([]string, 0, e.contracts)
	for _, s := range e.sim.RawDataset().Samples {
		addrs = append(addrs, s.Address)
	}
	if err := replayClient(e.sim, addrs, 64, layers); err != nil {
		return nil, err
	}
	if err := replayModel("Random Forest", e.sim.Dataset(), o.Seed, e.unique, e.unique, layers); err != nil {
		return nil, err
	}
	out.Layers = layers
	out.Spans = r.tr
	return out, nil
}
