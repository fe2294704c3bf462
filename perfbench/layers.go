package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"time"

	ph "github.com/phishinghook/phishinghook"
	"github.com/phishinghook/phishinghook/internal/chain"
	"github.com/phishinghook/phishinghook/internal/ethrpc"
	"github.com/phishinghook/phishinghook/internal/models"
)

// layerMetrics is every per-layer metric a traced run reports, with its
// unit. A workload reports 0 for a layer it does not run, which is the
// "should not move" half of each layer's prediction.
var layerMetrics = []struct{ name, unit string }{
	{"ethrpc.server_busy_s", "s"},
	{"ethrpc.requests", "count"},
	{"ethrpc.items", "count"},
	{"ethrpc.resp_mb", "MB"},
	{"ethrpc.refused", "count"},
	{"ethrpc.client_us_per_item", "us"},
	{"ethrpc.client_self_us_per_item", "us"},
	{"explorer.server_busy_s", "s"},
	{"explorer.requests", "count"},
	{"monitor.dedup_hit_ratio", "ratio"},
	{"monitor.queue_depth_p99", "count"},
	{"monitor.sink_busy_s", "s"},
	{"monitor.alerts", "count"},
	{"monitor.checkpoint_kb", "KB"},
	{"monitor.wal_emit_busy_s", "s"},
	{"detector.score_busy_s", "s"},
	{"detector.calls", "count"},
	{"detector.cache_hit_ratio", "ratio"},
	{"evm.disassemble_ns_per_item", "ns"},
	{"features.transform_ns_per_item", "ns"},
	{"models.infer_ns_per_item", "ns"},
	{"txstream.score_busy_s", "s"},
	{"txstream.score_self_s", "s"},
	{"detector.payload_busy_s", "s"},
	{"detector.code_busy_s", "s"},
	{"txstream.polls", "count"},
	{"txstream.code_cache_hit_ratio", "ratio"},
	{"txstream.seen_unique", "count"},
	{"txstream.checkpoint_kb", "KB"},
	{"cluster.router_busy_s", "s"},
	{"cluster.router_self_s", "s"},
	{"cluster.rejected", "count"},
	{"cluster.rehashes", "count"},
	{"serve.replica_busy_s", "s"},
	{"loadgen.lag_ms_p99", "ms"},
	{"loadgen.sent", "count"},
	{"trace.workload_wall_s", "s"},
	{"trace.unaccounted_core_s", "s"},
	{"trace.overhead_pct", "%"},
}

// zeroLayers returns every per-layer metric at 0.
func zeroLayers() map[string]metric {
	m := make(map[string]metric, len(layerMetrics))
	for _, l := range layerMetrics {
		m[l.name] = metric{0, l.unit}
	}
	return m
}

// set records a per-layer metric; the name must be one of layerMetrics.
func set(m map[string]metric, name string, v float64) {
	old, ok := m[name]
	if !ok {
		panic("perfbench: unknown layer metric " + name)
	}
	m[name] = metric{v, old.Unit}
}

// replayClient replays the ethrpc client's GetCodeBatch over the workload's
// address batches against a fresh wrapped endpoint: per item, the client's
// total time and the part of it the node handler does not account for
// (request encoding, HTTP and response decoding).
func replayClient(sim *ph.Simulation, addrs []string, batch int, m map[string]metric) error {
	if len(addrs) == 0 {
		return nil
	}
	parsed := make([]chain.Address, len(addrs))
	for i, a := range addrs {
		var err error
		if parsed[i], err = chain.ParseAddress(a); err != nil {
			return err
		}
	}
	rt := newTracer()
	url := sim.AddWrappedRPCEndpoints(1, func(_ int, h http.Handler) http.Handler { return tracedRPC(rt, h) })[0]
	c := ethrpc.NewClient(url)
	ctx := context.Background()
	replay := func() (time.Duration, error) {
		t0 := time.Now()
		for i := 0; i < len(parsed); i += batch {
			codes, err := c.GetCodeBatch(ctx, parsed[i:min(i+batch, len(parsed))])
			if err != nil {
				return 0, fmt.Errorf("replay GetCodeBatch: %w", err)
			}
			if len(codes) != min(batch, len(parsed)-i) {
				return 0, fmt.Errorf("replay GetCodeBatch: %d codes for %d addresses", len(codes), min(batch, len(parsed)-i))
			}
		}
		return time.Since(t0), nil
	}
	if _, err := replay(); err != nil { // warm connections
		return err
	}
	rt.reset()
	total, err := replay()
	if err != nil {
		return err
	}
	n := float64(len(parsed))
	set(m, "ethrpc.client_us_per_item", total.Seconds()*1e6/n)
	set(m, "ethrpc.client_self_us_per_item", (total.Seconds()-rt.busyS(lRPC))*1e6/n)
	return nil
}

// replayModel fits the named model through the internal registry (the same
// spec and seed ph.Train uses) and times, per item, disassembly over codes
// and featurization plus inference over inputs.
func replayModel(model string, ds *ph.Dataset, seed int64, codes, inputs [][]byte, m map[string]metric) error {
	spec, err := ph.ModelByName(model)
	if err != nil {
		return err
	}
	sc, ok := spec.New(seed, ph.DefaultNeuralConfig(seed)).(models.Scorer)
	if !ok {
		return fmt.Errorf("replay: %s is not a serving model", model)
	}
	if err := sc.Fit(ds); err != nil {
		return fmt.Errorf("replay: fit %s: %w", model, err)
	}
	if len(codes) > 0 {
		t0 := time.Now()
		n := 0
		for _, c := range codes {
			n += len(ph.Disassemble(c))
		}
		set(m, "evm.disassemble_ns_per_item", float64(time.Since(t0).Nanoseconds())/float64(len(codes)))
		if n == 0 {
			return fmt.Errorf("replay: disassembly produced no instructions")
		}
	}
	if len(inputs) == 0 {
		return nil
	}
	fz := sc.Featurizer()
	xs := make([][]float64, len(inputs))
	t0 := time.Now()
	for i, in := range inputs {
		xs[i] = fz.Transform(in)
	}
	set(m, "features.transform_ns_per_item", float64(time.Since(t0).Nanoseconds())/float64(len(inputs)))
	t0 = time.Now()
	for _, x := range xs {
		if _, err := sc.ScoreFeatures(x); err != nil {
			return fmt.Errorf("replay: infer: %w", err)
		}
	}
	set(m, "models.infer_ns_per_item", float64(time.Since(t0).Nanoseconds())/float64(len(inputs)))
	return nil
}

// fillTracerLayers copies the tracer's per-layer aggregates into the
// per-layer metrics.
func fillTracerLayers(m map[string]metric, tr *tracer) {
	set(m, "ethrpc.server_busy_s", tr.busyS(lRPC))
	set(m, "ethrpc.requests", tr.calls(lRPC))
	set(m, "ethrpc.items", float64(tr.rpcItems.Load()))
	set(m, "ethrpc.resp_mb", float64(tr.rpcRespBytes.Load())/(1<<20))
	set(m, "ethrpc.refused", float64(tr.rpcRefused.Load()))
	set(m, "explorer.server_busy_s", tr.busyS(lExplorer))
	set(m, "explorer.requests", tr.calls(lExplorer))
	set(m, "monitor.sink_busy_s", tr.busyS(lSink))
	set(m, "detector.score_busy_s", tr.busyS(lDetector))
	set(m, "detector.calls", tr.calls(lDetector))
	set(m, "txstream.score_busy_s", tr.busyS(lTxScore))
	set(m, "txstream.score_self_s", tr.selfS(lTxScore))
	set(m, "detector.payload_busy_s", tr.busyS(lPayload))
	set(m, "detector.code_busy_s", tr.busyS(lCode))
	set(m, "cluster.router_busy_s", tr.busyS(lRouter))
	set(m, "cluster.router_self_s", tr.selfS(lRouter))
	set(m, "serve.replica_busy_s", tr.busyS(lReplica))
	set(m, "trace.workload_wall_s", tr.busyS(lWorkload))
	set(m, "trace.unaccounted_core_s", tr.unaccountedCoreS(runtime.GOMAXPROCS(0)))
}
