package obs

import (
	"net/http/httptest"
	"strconv"
	"testing"
)

func TestMetricWritesHeaderAndSample(t *testing.T) {
	var w Writer
	w.Metric("a_total", "A things.", Counter, 3)
	want := "# HELP a_total A things.\n# TYPE a_total counter\na_total 3\n"
	if got := w.String(); got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

// TestSecondOfferSkipped pins the duplicate rule: the first offer of a family
// name owns it, whatever writer method makes the later offer.
func TestSecondOfferSkipped(t *testing.T) {
	var w Writer
	w.Metric("x", "first", Gauge, 1)
	w.Metric("x", "second", Gauge, 2)
	w.Family("x", "third", Gauge, "l", 1, func(int) (string, float64) { return "v", 3 })
	w.Info("x", "fourth", "l", "v")
	w.Quantiles("x", "fifth", 1, 2)
	want := "# HELP x first\n# TYPE x gauge\nx 1\n"
	if got := w.String(); got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestInfoEmptyValueWritesNothing(t *testing.T) {
	var w Writer
	w.Info("model_info", "Model.", "version", "")
	if got := w.String(); got != "" {
		t.Fatalf("empty info wrote %q", got)
	}
	// The empty offer still owns the name.
	w.Info("model_info", "Model.", "version", "v1")
	if got := w.String(); got != "" {
		t.Fatalf("later info after an empty one wrote %q", got)
	}

	var v Writer
	v.Info("model_info", "Model.", "version", `v"1`)
	want := "# HELP model_info Model.\n# TYPE model_info gauge\nmodel_info{version=\"v\\\"1\"} 1\n"
	if got := v.String(); got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestFamilyZeroSamplesWritesNothing(t *testing.T) {
	var w Writer
	w.Family("per_shard", "Per shard.", Gauge, "shard", 0, func(int) (string, float64) {
		t.Fatal("sample called for an empty family")
		return "", 0
	})
	if got := w.String(); got != "" {
		t.Fatalf("empty family wrote %q", got)
	}

	vals := []float64{0.5, 2}
	w.Family("per_node", "Per node.", Counter, "node", len(vals), func(i int) (string, float64) { return strconv.Itoa(i), vals[i] })
	want := "# HELP per_node Per node.\n# TYPE per_node counter\nper_node{node=\"0\"} 0.5\nper_node{node=\"1\"} 2\n"
	if got := w.String(); got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestQuantiles(t *testing.T) {
	var w Writer
	w.Quantiles("lat_ms", "Latency.", 1.5, 8)
	want := "# HELP lat_ms Latency.\n# TYPE lat_ms summary\nlat_ms{quantile=\"0.5\"} 1.5\nlat_ms{quantile=\"0.99\"} 8\n"
	if got := w.String(); got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestHandlerFreshWriterPerScrape(t *testing.T) {
	h := Handler(func(w *Writer) { w.Metric("up", "Up.", Gauge, 1) })
	for i := 0; i < 2; i++ {
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest("GET", "/metrics", nil))
		if ct := rec.Header().Get("Content-Type"); ct != ContentType {
			t.Fatalf("Content-Type = %q", ct)
		}
		if got, want := rec.Body.String(), "# HELP up Up.\n# TYPE up gauge\nup 1\n"; got != want {
			t.Fatalf("scrape %d: got %q, want %q", i, got, want)
		}
	}
}
