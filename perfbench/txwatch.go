package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	ph "github.com/phishinghook/phishinghook"
	"github.com/phishinghook/phishinghook/internal/chain"
	"github.com/phishinghook/phishinghook/internal/ethrpc"
)

// txwatchEnv is the set-up state of txwatch-durable.
type txwatchEnv struct {
	sim       *ph.Simulation
	code, cd  trained // the callee-code Random Forest and the Calldata Forest
	rpcURL    string
	tracedURL string
	head      uint64

	// The oracle, computed once after set-up: every tx of the feed, the
	// tx hashes an offline fused ScoreTx puts at or above the threshold,
	// and the replay inputs. A nil want skips the check (warm-up).
	txs      []ethrpc.PendingTx
	want     map[string]bool
	callees  []string
	calldata [][]byte
	codes    [][]byte
}

// txThreshold is the tx watcher's alert threshold, the one the txwatch CLI
// is documented with.
const txThreshold = 0.8

func (e *txwatchEnv) close() { e.sim.Close() }

func setupTxwatch(o options, tr *tracer) (*txwatchEnv, error) {
	sim, err := ph.StartSimulation(simConfig(o))
	if err != nil {
		return nil, err
	}
	e := &txwatchEnv{sim: sim, head: sim.HeadBlock()}
	if e.code, err = train("Random Forest", sim.Dataset(), o.Seed); err != nil {
		sim.Close()
		return nil, err
	}
	if e.cd, err = train("Calldata Forest", sim.TxDataset(), o.Seed); err != nil {
		sim.Close()
		return nil, err
	}
	e.rpcURL = sim.AddWrappedRPCEndpoints(1, nil)[0]
	if tr != nil {
		e.tracedURL = sim.AddWrappedRPCEndpoints(1, func(_ int, h http.Handler) http.Handler {
			return tracedRPC(tr, h)
		})[0]
	}
	if _, err := e.drain(context.Background(), o, nil, 0); err != nil {
		sim.Close()
		return nil, fmt.Errorf("warm-up drain: %w", err)
	}
	return e, nil
}

// computeOracle reads the whole pending-tx feed and every callee's code
// through the ethrpc client, then scores each tx offline with a fused
// scorer over the set-up detectors.
func (e *txwatchEnv) computeOracle() error {
	ctx := context.Background()
	c := ethrpc.NewClient(e.rpcURL)
	id, err := c.NewPendingTxFilter(ctx, 1)
	if err != nil {
		return fmt.Errorf("txwatch oracle: %w", err)
	}
	for {
		batch, err := c.TxFilterChanges(ctx, id)
		if err != nil {
			return fmt.Errorf("txwatch oracle: %w", err)
		}
		if len(batch) == 0 {
			break
		}
		e.txs = append(e.txs, batch...)
	}
	if _, err := c.UninstallFilter(ctx, id); err != nil {
		return fmt.Errorf("txwatch oracle: %w", err)
	}
	calleeCode := map[chain.Address][]byte{}
	var callees []chain.Address
	seenCD := map[string]bool{}
	for _, tx := range e.txs {
		if _, ok := calleeCode[tx.To]; !ok {
			calleeCode[tx.To] = nil
			callees = append(callees, tx.To)
		}
		if len(tx.Calldata) > 0 && !seenCD[string(tx.Calldata)] {
			seenCD[string(tx.Calldata)] = true
			e.calldata = append(e.calldata, tx.Calldata)
		}
	}
	for i := 0; i < len(callees); i += 64 {
		chunk := callees[i:min(i+64, len(callees))]
		codes, err := c.GetCodeBatch(ctx, chunk)
		if err != nil {
			return fmt.Errorf("txwatch oracle: %w", err)
		}
		for j, a := range chunk {
			calleeCode[a] = codes[j]
			e.callees = append(e.callees, a.String())
			if len(codes[j]) > 0 {
				e.codes = append(e.codes, codes[j])
			}
		}
	}
	fused, err := ph.NewFusedTxScorer(e.cd.det, e.code.det)
	if err != nil {
		return err
	}
	e.want = map[string]bool{}
	for i := range e.txs {
		tx := &e.txs[i]
		v, err := fused.ScoreTx(ctx, tx.Calldata, calleeCode[tx.To])
		if err != nil {
			return fmt.Errorf("txwatch oracle: %w", err)
		}
		if v.PhishProb() >= txThreshold {
			e.want[tx.HashHex()] = true
		}
	}
	return nil
}

// drain runs one TxWatcher over the whole feed with freshly loaded
// detectors (cold caches), a new checkpoint and a new JSONL sink.
func (e *txwatchEnv) drain(ctx context.Context, o options, tr *tracer, idx int) (*passResult, error) {
	codeDet, err := e.code.load()
	if err != nil {
		return nil, err
	}
	cdDet, err := e.cd.load()
	if err != nil {
		return nil, err
	}
	var payload, code ph.CodeScorer = cdDet, codeDet
	if tr != nil {
		payload = tracedScorer{t: tr, layer: lPayload, inner: payload}
		code = tracedScorer{t: tr, layer: lCode, inner: code}
	}
	fused, err := ph.NewFusedTxScorer(payload, code)
	if err != nil {
		return nil, err
	}
	var scorer ph.TxScorer = fused
	if o.Fault != nil {
		scorer = faultyTxScorer{inner: fused, f: o.Fault}
	}
	dir := filepath.Join(o.Dir, fmt.Sprintf("txwatch-%d", idx))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	alertsPath, ckpt := filepath.Join(dir, "alerts.jsonl"), filepath.Join(dir, "tx.ckpt")
	jsonl, err := ph.OpenJSONLSink(alertsPath)
	if err != nil {
		return nil, err
	}
	var sink ph.AlertSink = jsonl
	rpcURL := e.rpcURL
	if tr != nil {
		scorer = tracedTxScorer{t: tr, inner: scorer}
		sink = tracedSink{t: tr, layer: lSink, inner: sink}
		rpcURL = e.tracedURL
	}
	w, err := ph.NewTxWatcher(scorer, ph.TxWatcherConfig{
		RPCURL:         rpcURL,
		PollInterval:   time.Millisecond,
		StopAtBlock:    e.head,
		Threshold:      txThreshold,
		CheckpointPath: ckpt,
		Sinks:          []ph.AlertSink{sink},
	})
	if err != nil {
		jsonl.Close()
		return nil, err
	}
	var sp activeSpan
	if tr != nil {
		sp = tr.beginWorkload()
		ctx = tr.within(ctx, sp)
	}
	t0 := time.Now()
	runErr := w.Run(ctx)
	elapsed := time.Since(t0)
	if tr != nil {
		sp.end()
	}
	if err := jsonl.Close(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		return nil, runErr
	}
	st := w.Stats()
	res := &passResult{elapsed: elapsed, checkKB: fileKB(ckpt), alerts: float64(st.Alerts),
		polls: float64(st.Polls), seenUnique: float64(w.SeenUnique()), live: w}
	if n := st.CodeCacheHits + st.CodeCacheMisses; n > 0 {
		res.cacheHit = float64(st.CodeCacheHits) / float64(n)
	}
	alerts, err := readAlerts(alertsPath)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		res.alertList = alerts
	}
	summarizeAlerts(res, alerts, func(a ph.Alert) string { return a.TxHash }, t0, e.want)
	return res, nil
}

// replayWAL emits one drain's alerts, in order, through an AlertWAL around
// a JSONL sink; every delivered alert fsyncs the WAL's sent ledger. The
// drain itself runs without the WAL: its serialized per-alert fsync made the
// drain's rate track the host disk rather than the program.
func replayWAL(dir string, alerts []ph.Alert, m map[string]metric) error {
	dir = filepath.Join(dir, "wal-replay")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	jsonl, err := ph.OpenJSONLSink(filepath.Join(dir, "alerts.jsonl"))
	if err != nil {
		return err
	}
	defer jsonl.Close()
	wal, err := ph.OpenAlertWAL(filepath.Join(dir, "alerts.wal"), jsonl)
	if err != nil {
		return err
	}
	defer wal.Close()
	rt := newTracer()
	sink := tracedSink{t: rt, layer: lWAL, inner: wal}
	for _, a := range alerts {
		if err := sink.Emit(a); err != nil {
			return fmt.Errorf("WAL replay: %w", err)
		}
	}
	if st := wal.Stats(); st.Pending != 0 || st.Spilled != 0 {
		return fmt.Errorf("WAL replay: %d alerts left pending, %d spilled", st.Pending, st.Spilled)
	}
	set(m, "monitor.wal_emit_busy_s", rt.busyS(lWAL))
	return nil
}

// faultyTxScorer moves one fused verdict to the far side of the alert
// threshold.
type faultyTxScorer struct {
	inner ph.TxScorer
	f     *fault
}

func (s faultyTxScorer) ScoreTx(ctx context.Context, calldata, code []byte) (ph.TxVerdict, error) {
	v, err := s.inner.ScoreTx(ctx, calldata, code)
	if err == nil && s.f.hit() {
		v.Phishing, v.Confidence = v.PhishProb() < txThreshold, 1
	}
	return v, err
}

func runTxwatch(o options) (*outcome, error) {
	e, r, err := measurePasses(o, setupTxwatch, func(e *txwatchEnv) int { return len(e.txs) },
		func(e *txwatchEnv, tr *tracer, idx int) (*passResult, error) {
			return e.drain(context.Background(), o, tr, idx)
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
			"txs":                  len(e.txs),
			"unique_calldata":      len(e.calldata),
			"callees":              len(e.callees),
			"expected_alerts":      len(e.want),
			"passes":               len(r.plain),
			"wall_clock":           r.wall,
			"alert_latency_p90_ms": r.alertP90MS,
			"code_cache_size":      4096,
			"poll_interval_ms":     1,
			"alert_threshold":      txThreshold,
		},
	}
	if r.tr == nil {
		return out, nil
	}
	layers := zeroLayers()
	fillTracerLayers(layers, r.tr)
	last := r.traced[len(r.traced)-1]
	set(layers, "txstream.polls", last.polls)
	set(layers, "txstream.code_cache_hit_ratio", last.cacheHit)
	set(layers, "txstream.seen_unique", last.seenUnique)
	set(layers, "txstream.checkpoint_kb", last.checkKB)
	set(layers, "monitor.alerts", last.alerts)
	set(layers, "trace.overhead_pct", r.overheadPct)
	if err := replayClient(e.sim, e.callees, 64, layers); err != nil {
		return nil, err
	}
	if err := replayWAL(o.Dir, last.alertList, layers); err != nil {
		return nil, err
	}
	// The fused path featurizes calldata on every tx: replay the Calldata
	// Forest over the feed's unique calldata, disassembly over the callees'
	// code.
	if err := replayModel("Calldata Forest", e.sim.TxDataset(), o.Seed, e.codes, e.calldata, layers); err != nil {
		return nil, err
	}
	out.Layers = layers
	out.Spans = r.tr
	return out, nil
}
