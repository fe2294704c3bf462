package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

func smokeOptions(t *testing.T, workload string, trace bool) options {
	return options{Workload: workload, Seed: 3, Seconds: 0.3, Trace: trace, Smoke: true, Setups: 1, Dir: t.TempDir()}
}

// benchmarkFile is the part of BENCHMARK.json the program must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func units(m map[string]metric) map[string]string {
	out := map[string]string{}
	for k, v := range m {
		out[k] = v.Unit
	}
	return out
}

// TestSmokeWorkloads runs a short smoke of every workload, untraced and
// traced, and checks it passes its oracle and reports exactly the metrics
// BENCHMARK.json declares.
func TestSmokeWorkloads(t *testing.T) {
	b := readBenchmarkFile(t)
	wantE2E, wantLayers := map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		wantE2E[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		wantLayers[m.Name] = m.Unit
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		for _, trace := range []bool{false, true} {
			res, err := run(smokeOptions(t, w.Name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := wantE2E
			if trace {
				want = wantLayers
			}
			if got := units(res.Metrics); !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v: metrics %v, BENCHMARK.json declares %v", w.Name, trace, got, want)
			}
			for name, m := range res.Metrics {
				if !trace && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, name, m.Value)
				}
			}
		}
	}
}

// TestInjectedWrongVerdictIsCaught flips one verdict behind each workload's
// scorer and checks the oracle counts it as a failure.
func TestInjectedWrongVerdictIsCaught(t *testing.T) {
	for name := range workloads {
		o := smokeOptions(t, name, false)
		o.Fault = &fault{N: 5}
		res, err := run(o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if o.Fault.calls.Load() <= o.Fault.N {
			t.Fatalf("%s: the fault never fired (%d calls)", name, o.Fault.calls.Load())
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: a flipped verdict went unnoticed (correct=%v failed=%d)", name, res.Correct, res.Failed)
		}
	}
}

// TestSameSeedSameInputs checks that a seed fixes the generated inputs and
// the alert sets, and that another seed changes them.
func TestSameSeedSameInputs(t *testing.T) {
	a := genSchedule(3, 0, rateMid, 0.5, 1000)
	if b := genSchedule(3, 0, rateMid, 0.5, 1000); !reflect.DeepEqual(a, b) {
		t.Error("score schedule differs for the same seed")
	}
	if c := genSchedule(4, 0, rateMid, 0.5, 1000); reflect.DeepEqual(a, c) {
		t.Error("score schedule identical for different seeds")
	}

	backfillAlerts := func(seed int64) *passResult {
		o := smokeOptions(t, "backfill-cold", false)
		o.Seed = seed
		e, err := setupBackfill(o, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer e.close()
		if err := e.computeOracle(); err != nil {
			t.Fatal(err)
		}
		r, err := e.pass(context.Background(), o, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		if r.mismatches != 0 {
			t.Fatalf("backfill seed %d: %d oracle mismatches", seed, r.mismatches)
		}
		return r
	}
	txAlerts := func(seed int64) *passResult {
		o := smokeOptions(t, "txwatch-durable", false)
		o.Seed = seed
		e, err := setupTxwatch(o, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer e.close()
		if err := e.computeOracle(); err != nil {
			t.Fatal(err)
		}
		r, err := e.drain(context.Background(), o, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		if r.mismatches != 0 {
			t.Fatalf("txwatch seed %d: %d oracle mismatches", seed, r.mismatches)
		}
		return r
	}
	for name, alerts := range map[string]func(int64) *passResult{"backfill": backfillAlerts, "txwatch": txAlerts} {
		first, second, other := alerts(3), alerts(3), alerts(4)
		if first.alerts == 0 {
			t.Errorf("%s: no alerts", name)
		}
		if first.alertDigest != second.alertDigest {
			t.Errorf("%s: alert sets differ for the same seed (%v vs %v alerts)", name, first.alerts, second.alerts)
		}
		if first.alertDigest == other.alertDigest {
			t.Errorf("%s: alert sets identical for different seeds", name)
		}
	}
}

// TestReferenceTime checks the calibration scaling: on a host serving the
// kernel at half the nominal rate, times halve and rates double while the
// heap is untouched; and a real slice records a rate while the kernel's
// in-process unit allocates nothing.
func TestReferenceTime(t *testing.T) {
	c := &calibrator{rates: []float64{calNominalRate / 2, calNominalRate / 2, calNominalRate}}
	m, wall := c.endToEnd(4, 100, 10, 30)
	want := map[string]float64{"setup_s": 2, "throughput_per_s": 200, "latency_p50_ms": 5, "heap_live_mb": 30}
	for name, v := range want {
		if m[name].Value != v {
			t.Errorf("%s = %v, want %v", name, m[name].Value, v)
		}
	}
	if wall["setup_s"] != 4.0 || wall["slowdown"] != 2.0 {
		t.Errorf("wall-clock record %v", wall)
	}

	real, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	defer real.close()
	if err := real.slices(1); err != nil {
		t.Fatal(err)
	}
	if len(real.rates) != 1 || !(real.rates[0] > 0) {
		t.Fatalf("slice recorded %v", real.rates)
	}
	s := real.scratch.Get().(*calScratch)
	if n := testing.AllocsPerRun(10, func() { real.unit(s, 1) }); n != 0 {
		t.Errorf("kernel unit allocates %v times", n)
	}
}
