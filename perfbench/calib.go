package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Host speed calibration.
//
// The benchmark runs on a few vCPUs of a shared host whose speed drifts
// between phases minutes long: on a 2-vCPU Xeon VM every workload's
// wall-clock figures, set-up included, moved together by up to 2x between
// runs of the same code, with no steal time reported. Repetition inside a
// run cannot average that out, so every run interleaves short slices of a
// fixed reference kernel, owned by the benchmark and untouched by the
// program, with its measured work, and reports every timing in reference
// time: the measured time scaled by how fast the host ran the kernel
// meanwhile, relative to a fixed nominal kernel rate. A change to the
// program moves the measured time and not the kernel, so it shows in full;
// a slower host moves both and cancels. Slices run only between set-ups,
// passes and windows, never alongside the measured work.
//
// The kernel is a small JSON service on loopback HTTP, driven over
// calWorkers keep-alive connections as the pipelines use both cores. Each
// request carries a hex-encoded buffer, and the handler decodes it, then
// runs calUnitsPerRequest units of in-process work: hex, SHA-256, a byte
// histogram, a small map and a data-dependent walk over a table larger
// than the last-level cache. The mix is about one part request path
// (syscalls, goroutine hand-offs, JSON, allocation) to four parts
// computation: across the host's phases, computation alone moved less than
// the workloads did and the request path alone moved more.

const (
	// calNominalRate is the kernel rate, in requests per second over all
	// workers, that defines reference time: a run on a host that serves the
	// kernel at this rate reports wall time unscaled.
	calNominalRate = 1400.0
	calWorkers     = 2
	// calRequests is the work of one slice per worker (about 40 ms).
	calRequests        = 25
	calUnitsPerRequest = 32
	calTableNodes      = 1 << 20 // 16 MB
	// calWalkSteps is the walk's length per unit, which balances its cache
	// misses against the unit's in-cache work.
	calWalkSteps = 128
	calBufBytes  = 2048
	// calSetupSlices run before each set-up, calPassSlices before each
	// measured pass or load window.
	calSetupSlices = 4
	calPassSlices  = 2
)

type calNode struct {
	next [2]uint32
	key  uint64
}

// calibrator measures the host's kernel rate in slices interleaved with
// the set-ups and the measured work.
type calibrator struct {
	table   []calNode // mapped outside the Go heap, so heap_live_mb excludes it
	mem     []byte
	scratch sync.Pool // *calScratch
	srv     *httptest.Server
	client  *http.Client
	rates   []float64
}

// calScratch is one unit's buffers, reused so the units allocate nothing.
type calScratch struct {
	raw, dec, enc []byte
	m             map[uint32]uint32
}

func newCalibrator() (*calibrator, error) {
	mem, err := syscall.Mmap(-1, 0, calTableNodes*int(unsafe.Sizeof(calNode{})),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	t := unsafe.Slice((*calNode)(unsafe.Pointer(&mem[0])), calTableNodes)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range t {
		x = lcg(x)
		t[i] = calNode{next: [2]uint32{uint32(x >> 32), uint32(x)}, key: x}
	}
	c := &calibrator{table: t, mem: mem}
	c.scratch.New = func() any {
		return &calScratch{raw: make([]byte, calBufBytes), dec: make([]byte, calBufBytes),
			enc: make([]byte, 2*calBufBytes), m: make(map[uint32]uint32, 64)}
	}
	c.srv = httptest.NewServer(http.HandlerFunc(c.serve))
	c.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: calWorkers, MaxIdleConnsPerHost: calWorkers}}
	return c, nil
}

// close stops the kernel's server and unmaps the table.
func (c *calibrator) close() {
	c.client.CloseIdleConnections()
	c.srv.Close()
	syscall.Munmap(c.mem)
	c.table, c.mem = nil, nil
}

func lcg(x uint64) uint64 { return x*6364136223846793005 + 1442695040888963407 }

type calRequest struct {
	Data string `json:"data"`
	Seed uint64 `json:"seed"`
}

type calResponse struct {
	Sum string `json:"sum"`
	X   uint64 `json:"x"`
}

func (c *calibrator) serve(w http.ResponseWriter, r *http.Request) {
	var req calRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s := c.scratch.Get().(*calScratch)
	defer c.scratch.Put(s)
	if _, err := hex.Decode(s.raw, []byte(req.Data)); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	x := req.Seed
	for i := 0; i < calUnitsPerRequest; i++ {
		x = c.unit(s, x)
	}
	sum := sha256.Sum256(s.dec)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(calResponse{Sum: hex.EncodeToString(sum[:8]), X: x})
}

// unit is one unit of in-process work over s.raw; it returns the next
// state and leaves a transformed copy in s.dec.
func (c *calibrator) unit(s *calScratch, x uint64) uint64 {
	hex.Encode(s.enc, s.raw)
	if _, err := hex.Decode(s.dec, s.enc); err != nil {
		panic(err)
	}
	sum := sha256.Sum256(s.dec)
	var hist [256]uint32
	for _, b := range s.dec {
		hist[b]++
	}
	clear(s.m)
	for i := 0; i < 64; i++ {
		s.m[hist[i]&31] += uint32(i)
	}
	j := uint32(sum[0]) | uint32(sum[1])<<8 | uint32(sum[2])<<16
	for k := 0; k < calWalkSteps; k++ {
		n := &c.table[j%calTableNodes]
		j = n.next[x&1] ^ uint32(k)
		x ^= n.key
	}
	s.raw[x%calBufBytes] ^= byte(x)
	return x + uint64(len(s.m))
}

// slice runs one slice of the kernel, every worker sending calRequests
// requests back to back, and records its rate.
func (c *calibrator) slice() error {
	errs := make([]error, calWorkers)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < calWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = c.send(uint64(w + 1))
		}(w)
	}
	wg.Wait()
	rate := calWorkers * calRequests / time.Since(t0).Seconds()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("calibration: %w", err)
		}
	}
	c.rates = append(c.rates, rate)
	return nil
}

// slices runs n slices (see slice).
func (c *calibrator) slices(n int) error {
	for i := 0; i < n; i++ {
		if err := c.slice(); err != nil {
			return err
		}
	}
	return nil
}

// send is one worker's part of a slice.
func (c *calibrator) send(x uint64) error {
	raw := make([]byte, calBufBytes)
	for i := 0; i < calRequests; i++ {
		for k := range raw {
			x = lcg(x)
			raw[k] = byte(x >> 56)
		}
		body, err := json.Marshal(calRequest{Data: hex.EncodeToString(raw), Seed: x})
		if err != nil {
			return err
		}
		resp, err := c.client.Post(c.srv.URL, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		var out calResponse
		err = json.NewDecoder(resp.Body).Decode(&out)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return fmt.Errorf("kernel request: status %d, %v", resp.StatusCode, err)
		}
		x ^= out.X
	}
	return nil
}

// slowdown is how much slower than nominal the host ran the kernel over the
// run: the nominal rate over the median slice rate. A wall time divided by
// it (a rate multiplied by it) is in reference time. The set-up slices
// alone are too few to scale set-up time steadily, so every timing is
// scaled by all the run's slices.
func (c *calibrator) slowdown() float64 {
	return calNominalRate / median(c.rates)
}

// endToEnd is the end-to-end metrics from a run's wall-clock figures, with
// every timing in reference time, plus the wall-clock figures and the
// slowdown for the config record.
func (c *calibrator) endToEnd(setupS, rate, p50MS, heapMB float64) (map[string]metric, map[string]any) {
	k := c.slowdown()
	m := map[string]metric{
		"setup_s":          {setupS / k, "s"},
		"throughput_per_s": {rate * k, "1/s"},
		"latency_p50_ms":   {p50MS / k, "ms"},
		"heap_live_mb":     {heapMB, "MB"},
	}
	wall := map[string]any{
		"setup_s":          setupS,
		"throughput_per_s": rate,
		"latency_p50_ms":   p50MS,
		"slowdown":         k,
		"slices":           len(c.rates),
	}
	return m, wall
}
