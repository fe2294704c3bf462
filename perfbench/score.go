package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	ph "github.com/phishinghook/phishinghook"
)

// The score-open schedule. Requests arrive open-loop (Poisson at a fixed
// rate, independent of completions) over at most loadConns connections.
// The low, mid and high rates play in short windows, interleaved with
// closed-loop windows on the same connections that measure the saturation
// rate: the rate beyond which the backlog grows.
const (
	rateLow, rateMid, rateHigh = 500.0, 1000.0, 1500.0
	loadConns                  = 2
	batchShare                 = 0.2 // share of requests carrying a batch
	batchSize                  = 16
	// Keys are Zipf(s, v) ranks over a seed-permuted key space. v flattens
	// the head, so no single bytecode carries a large share of the load
	// and the work per request does not hinge on which codes a seed makes
	// hottest.
	zipfS = 1.1
	zipfV = 100.0
	// backlogWaitMS flags a growing backlog: requests in the window's
	// final quarter waited longer than this for a free connection.
	backlogWaitMS = 25.0
	// spinWindow is how long before a request's due time the generator
	// stops sleeping and yields in a loop. Timer wake-ups on a shared VM
	// run milliseconds late; yielding keeps the generator on schedule.
	spinWindow = 300 * time.Microsecond
)

// scoreEnv is the set-up state of score-open: two replicas, each with its
// own freshly loaded detector (default 4096-entry cache), behind a router.
type scoreEnv struct {
	sim      *ph.Simulation
	rf       trained
	keys     [][]byte
	dets     []*ph.Detector
	servers  []*httptest.Server
	router   *ph.ClusterRouter
	front    *httptest.Server
	client   *http.Client
	ref      []float64 // oracle: direct Detector.Score P(phishing) per key
	warmSecs float64
}

func (e *scoreEnv) close() {
	e.client.CloseIdleConnections()
	e.front.Close()
	for _, s := range e.servers {
		s.Close()
	}
	e.sim.Close()
}

// scoreKeys makes the key space: every entry of the raw corpus (clones
// included), each given a distinct 5-byte trailer the way compiler metadata
// makes otherwise identical deployments differ. The space is then larger
// than the two replicas' caches together, so the hit ratio settles at a
// partial value.
func scoreKeys(raw *ph.Dataset) [][]byte {
	keys := make([][]byte, len(raw.Samples))
	for i, s := range raw.Samples {
		k := make([]byte, len(s.Bytecode), len(s.Bytecode)+5)
		copy(k, s.Bytecode)
		if len(k)+5 <= 24576 {
			k = append(k, 0xfe)
			k = binary.BigEndian.AppendUint32(k, uint32(i))
		}
		keys[i] = k
	}
	return keys
}

func setupScore(o options, tr *tracer) (*scoreEnv, error) {
	sim, err := ph.StartSimulation(simConfig(o))
	if err != nil {
		return nil, err
	}
	e := &scoreEnv{sim: sim, keys: scoreKeys(sim.RawDataset()), warmSecs: 1}
	if o.Smoke {
		e.warmSecs = 0.2
	}
	if e.rf, err = train("Random Forest", sim.Dataset(), o.Seed); err != nil {
		sim.Close()
		return nil, err
	}
	var urls []string
	for i := 0; i < 2; i++ {
		det, err := e.rf.load()
		if err != nil {
			e.closePartial()
			return nil, err
		}
		e.dets = append(e.dets, det)
		var backend ph.ScoreBackend = det
		if o.Fault != nil && i == 0 {
			backend = faultyBackend{ScoreBackend: det, f: o.Fault}
		}
		var h http.Handler
		if tr != nil {
			h = tracedHandler(tr, lReplica, lRouter, ph.NewScoreHandler(tracedBackend{ScoreBackend: backend, t: tr}, ph.WithClusterRole("replica")))
		} else {
			h = ph.NewScoreHandler(backend, ph.WithClusterRole("replica"))
		}
		srv := httptest.NewServer(h)
		e.servers = append(e.servers, srv)
		urls = append(urls, srv.URL)
	}
	if e.router, err = ph.NewClusterRouter(ph.ClusterConfig{Replicas: urls}); err != nil {
		e.closePartial()
		return nil, err
	}
	h := e.router.Handler()
	if tr != nil {
		h = tracedHandler(tr, lRouter, lWorkload, h)
	}
	e.front = httptest.NewServer(h)
	e.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     loadConns,
		MaxIdleConnsPerHost: loadConns,
		DisableCompression:  true,
	}}
	// Warm-up at the mid rate fills the replica caches to their steady
	// hit ratio. It is not verified; the run's own windows are.
	warm := e.window(genSchedule(o.Seed, -1, rateMid, e.warmSecs, len(e.keys)), false, false)
	if warm.sent == 0 {
		e.close()
		return nil, fmt.Errorf("warm-up sent no request")
	}
	return e, nil
}

func (e *scoreEnv) closePartial() {
	for _, s := range e.servers {
		s.Close()
	}
	e.sim.Close()
}

// request is one scheduled /score call: when it is due (from the window
// start) and which keys it carries.
type request struct {
	due  time.Duration
	keys []int32
}

// genSchedule draws one window's requests from the seed: Poisson arrivals
// at rate, 80% single bytecodes and 20% batches of 16, keys Zipf over a
// seed-permuted key space. stream separates the windows of one run.
func genSchedule(seed int64, stream int, rate, secs float64, nkeys int) []request {
	rng := rand.New(rand.NewSource(seed*7919 + int64(stream)*104729 + 17))
	perm := rand.New(rand.NewSource(seed)).Perm(nkeys)
	zipf := rand.NewZipf(rng, zipfS, zipfV, uint64(nkeys-1))
	var out []request
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= secs {
			return out
		}
		n := 1
		if rng.Float64() < batchShare {
			n = batchSize
		}
		r := request{due: time.Duration(t * float64(time.Second)), keys: make([]int32, n)}
		for i := range r.keys {
			r.keys[i] = int32(perm[zipf.Uint64()])
		}
		out = append(out, r)
	}
}

// windowResult is one window, reduced to scalars as it ends so the heap
// measured after the run holds no per-request data.
type windowResult struct {
	sent          int
	failed        int64
	p50, p90, p99 float64 // request latency in ms, see window; failures count as +Inf
	lagP99        float64 // generator wake-up lateness in ms
	backlog       bool
	elapsed       time.Duration
}

// p is the window's latency q-quantile in ms, for the quantiles it keeps.
func (w windowResult) p(q float64) float64 {
	switch q {
	case 0.5:
		return w.p50
	case 0.9:
		return w.p90
	case 0.99:
		return w.p99
	}
	panic(fmt.Sprintf("window keeps no %v quantile", q))
}

type reply struct {
	attempted bool
	status    int
	body      []byte
	err       error
}

// window plays one schedule and, when verify is set, checks every returned
// probability against the oracle. Open loop, each request is sent when due
// and timed from then, so a stall's wait counts against the requests behind
// it; one still unsent 2 s after the schedule ends is abandoned as a
// failure. Closed loop (saturation), the connections send
// back to back until the schedule's span is used up.
func (e *scoreEnv) window(reqs []request, closed, verify bool) windowResult {
	replies := make([]reply, len(reqs))
	lat := make([]float64, len(reqs))
	lag := make([]float64, len(reqs))  // generator wake-up lateness
	wait := make([]float64, len(reqs)) // waited for a free connection
	var next atomic.Int64
	start := time.Now()
	var span time.Duration
	if len(reqs) > 0 {
		span = reqs[len(reqs)-1].due
	}
	stop := start.Add(span + 2*time.Second)
	if closed {
		stop = start.Add(span)
	}
	var wg sync.WaitGroup
	for c := 0; c < loadConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var body []byte
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				taken := time.Now()
				body = e.encode(body[:0], reqs[i].keys)
				due := start.Add(reqs[i].due)
				if closed {
					due = taken
				}
				waitUntil(due)
				sent := time.Now()
				if sent.After(stop) {
					if closed {
						return
					}
					replies[i] = reply{attempted: true, err: fmt.Errorf("abandoned %v behind schedule", sent.Sub(due))}
					continue
				}
				// A request picked up before it was due waited on the
				// generator's timer, not on the system: it is timed from
				// when it was sent, and the oversleep is generator lag. One
				// picked up late waited for a connection: it is timed from
				// its due time.
				from := due
				if taken.Before(due) {
					from = sent
					lag[i] = float64(sent.Sub(due)) / 1e6
				}
				replies[i] = e.post(body)
				lat[i] = float64(time.Since(from)) / 1e6
				wait[i] = float64(from.Sub(due)) / 1e6
			}
		}()
	}
	wg.Wait()
	res := windowResult{elapsed: time.Since(start)}
	var latMS, lagMS, waitMS []float64
	for i := range reqs {
		r := &replies[i]
		if !r.attempted {
			continue
		}
		res.sent++
		bad := r.err != nil || r.status != http.StatusOK
		if !bad && verify {
			bad = e.mismatches(reqs[i].keys, r.body) > 0
		}
		if bad {
			res.failed++
			lat[i] = math.Inf(1)
		}
		latMS = append(latMS, lat[i])
		lagMS = append(lagMS, lag[i])
		waitMS = append(waitMS, wait[i])
	}
	res.p50, res.p90, res.p99 = quantile(latMS, 0.5), quantile(latMS, 0.9), quantile(latMS, 0.99)
	res.lagP99 = quantile(lagMS, 0.99)
	// A growing backlog shows as a connection wait that keeps climbing:
	// the final quarter of the window waits longer than backlogWaitMS.
	if n := len(waitMS); !closed && n >= 8 {
		res.backlog = median(waitMS[n-n/4:]) > backlogWaitMS
	}
	return res
}

func (e *scoreEnv) post(body []byte) reply {
	resp, err := e.client.Post(e.front.URL+"/score", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{attempted: true, err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return reply{attempted: true, status: resp.StatusCode, body: b, err: err}
}

// encode appends the JSON body for keys: {"bytecode":...} for one key,
// {"bytecodes":[...]} for a batch.
func (e *scoreEnv) encode(dst []byte, keys []int32) []byte {
	hexOf := func(dst []byte, code []byte) []byte {
		dst = append(dst, `"0x`...)
		n, need := len(dst), hex.EncodedLen(len(code))
		if cap(dst)-n < need {
			grown := make([]byte, n, 2*cap(dst)+need)
			copy(grown, dst)
			dst = grown
		}
		dst = dst[:n+need]
		hex.Encode(dst[n:], code)
		return append(dst, '"')
	}
	if len(keys) == 1 {
		dst = append(dst, `{"bytecode":`...)
		dst = hexOf(dst, e.keys[keys[0]])
		return append(dst, '}')
	}
	dst = append(dst, `{"bytecodes":[`...)
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = hexOf(dst, e.keys[k])
	}
	return append(dst, "]}"...)
}

// mismatches counts returned verdicts whose P(phishing) differs from a
// direct Detector.Score of the same bytecode (or that are missing).
func (e *scoreEnv) mismatches(keys []int32, body []byte) int64 {
	var resp ph.ScoreResponse
	if err := json.Unmarshal(body, &resp); err != nil || len(resp.Verdicts) != len(keys) {
		return int64(len(keys))
	}
	var n int64
	for i, v := range resp.Verdicts {
		p := v.Confidence
		if !v.Phishing {
			p = 1 - p
		}
		if p != e.ref[keys[i]] {
			n++
		}
	}
	return n
}

// waitUntil sleeps until shortly before t, then yields until t.
func waitUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		if d > spinWindow {
			time.Sleep(d - spinWindow)
		} else {
			runtime.Gosched()
		}
	}
}

func (e *scoreEnv) computeOracle() error {
	vs, err := e.rf.det.ScoreBatch(context.Background(), e.keys)
	if err != nil {
		return fmt.Errorf("score oracle: %w", err)
	}
	e.ref = make([]float64, len(vs))
	for i, v := range vs {
		e.ref[i] = v.PhishProb()
	}
	return nil
}

func runScore(o options) (*outcome, error) {
	var tr *tracer
	if o.Trace {
		tr = newTracer()
	}
	e, setupS, err := repeatSetup(o.Setups, o.Cal, func() (*scoreEnv, error) { return setupScore(o, tr) },
		func(e *scoreEnv) { e.close() })
	if err != nil {
		return nil, err
	}
	defer e.close()
	if err := e.computeOracle(); err != nil {
		return nil, err
	}
	o.Fault.arm()
	winSecs := 0.5
	if o.Smoke {
		winSecs = 0.1
	}
	var all []windowResult
	stream := 0
	var calErr error
	play := func(rate float64, closed bool) windowResult {
		if err := o.Cal.slices(calPassSlices); err != nil && calErr == nil {
			calErr = err
		}
		w := e.window(genSchedule(o.Seed, stream, rate, winSecs, len(e.keys)), closed, true)
		stream++
		all = append(all, w)
		return w
	}
	if tr != nil {
		out, err := e.traced(o, tr, play, winSecs)
		if calErr != nil {
			return nil, calErr
		}
		return out, err
	}

	// Short windows cycle through the fixed rates and saturation, so
	// each metric is a median over windows spread across the whole run
	// and host drift hits all of them alike. A rate of 0 in the cycle is
	// a saturation window: a schedule offering far more than the system
	// takes, which the connections then send back to back.
	cycle := []float64{rateMid, 0, rateMid, 0, rateLow, rateMid, 0, rateMid, 0, rateHigh}
	perRate := map[float64][]windowResult{}
	var satRates []float64
	for i := 0; i < max(len(cycle), int(o.Seconds/winSecs)); i++ {
		rate := cycle[i%len(cycle)]
		if rate == 0 {
			w := play(20000, true)
			satRates = append(satRates, float64(w.sent-int(w.failed))/w.elapsed.Seconds())
			continue
		}
		perRate[rate] = append(perRate[rate], play(rate, false))
	}
	if calErr != nil {
		return nil, calErr
	}
	heap := heapLiveMB()

	endToEnd, wall := o.Cal.endToEnd(setupS, median(satRates), medianOf(perRate[rateMid], 0.5), heap)
	out := &outcome{EndToEnd: endToEnd}
	for _, w := range all {
		out.Attempted += int64(w.sent)
		out.Failed += w.failed
	}
	rates := map[string]any{}
	for name, rate := range map[string]float64{"low": rateLow, "mid": rateMid, "high": rateHigh} {
		ws := perRate[rate]
		backlog := false
		for _, w := range ws {
			backlog = backlog || w.backlog
		}
		rates[name] = map[string]any{
			"rps": rate, "windows": len(ws), "p50_ms": medianOf(ws, 0.5), "p90_ms": medianOf(ws, 0.9),
			"p99_ms":     medianOf(ws, 0.99),
			"lag_p99_ms": lagP99(ws), "backlog": backlog,
		}
	}
	hits, misses := e.cacheStats()
	out.Record = map[string]any{
		"keys":            len(e.keys),
		"wall_clock":      wall,
		"rates":           rates,
		"saturation_rps":  satRates,
		"window_s":        winSecs,
		"connections":     loadConns,
		"batch_share":     batchShare,
		"batch_size":      batchSize,
		"zipf_s":          zipfS,
		"replica_cache":   4096,
		"cache_hit_ratio": float64(hits) / math.Max(1, float64(hits+misses)),
	}
	return out, nil
}

func medianOf(ws []windowResult, q float64) float64 {
	var xs []float64
	for _, w := range ws {
		xs = append(xs, w.p(q))
	}
	return median(xs)
}

// lagP99 is the generator's wake-up lateness p99, median over windows.
func lagP99(ws []windowResult) float64 {
	var xs []float64
	for _, w := range ws {
		xs = append(xs, w.lagP99)
	}
	return median(xs)
}

func (e *scoreEnv) cacheStats() (hits, misses uint64) {
	for _, d := range e.dets {
		h, m := d.CacheStats()
		hits += h
		misses += m
	}
	return hits, misses
}

// traced is the score-open traced run: mid-rate windows alternating with
// the tracer off and on, so the overhead is traced minus untraced p50.
func (e *scoreEnv) traced(o options, tr *tracer, play func(float64, bool) windowResult, winSecs float64) (*outcome, error) {
	h0, m0 := e.cacheStats()
	tr.reset()
	var plain, traced []windowResult
	deadline := time.Now().Add(time.Duration(o.Seconds * float64(time.Second)))
	for i := 0; i < 4 || time.Now().Before(deadline); i++ {
		on := i%2 == 1
		tr.enabled.Store(on)
		var sp activeSpan
		if on {
			sp = tr.beginWorkload()
		}
		w := play(rateMid, false)
		if on {
			sp.end()
			traced = append(traced, w)
		} else {
			plain = append(plain, w)
		}
	}
	tr.enabled.Store(false)
	h1, m1 := e.cacheStats()
	out := &outcome{}
	both := append(append([]windowResult(nil), plain...), traced...)
	for _, w := range both {
		out.Attempted += int64(w.sent)
		out.Failed += w.failed
	}
	layers := zeroLayers()
	fillTracerLayers(layers, tr)
	st := e.router.Stats()
	set(layers, "cluster.rejected", float64(st.Rejected))
	set(layers, "cluster.rehashes", float64(st.Rehashes))
	if n := (h1 - h0) + (m1 - m0); n > 0 {
		set(layers, "detector.cache_hit_ratio", float64(h1-h0)/float64(n))
	}
	set(layers, "loadgen.lag_ms_p99", lagP99(both))
	set(layers, "loadgen.sent", float64(out.Attempted))
	plainP50, tracedP50 := medianOf(plain, 0.5), medianOf(traced, 0.5)
	set(layers, "trace.overhead_pct", (tracedP50/plainP50-1)*100)
	if err := replayModel("Random Forest", e.sim.Dataset(), o.Seed, e.keys, e.keys, layers); err != nil {
		return nil, err
	}
	out.Layers = layers
	out.Spans = tr
	out.Record = map[string]any{"window_s": winSecs,
		"untraced_p50_ms": plainP50, "traced_p50_ms": tracedP50, "keys": len(e.keys)}
	return out, nil
}
