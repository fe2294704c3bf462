// Package obs is the one Prometheus text-exposition writer (format 0.0.4)
// behind every /metrics endpoint: the scoring replica's and the cluster
// router's. The stdlib-only constraint rules out the client library, and the
// format is small enough to own here: a HELP and a TYPE line per family,
// then one sample line per series.
//
// A family name may appear only once in a scrape (Prometheus drops the whole
// scrape otherwise), so the Writer keeps the one duplicate rule: the first
// caller to offer a family owns it, and any later offer of the same name is
// skipped — even when the first offer had nothing to write.
package obs

import (
	"fmt"
	"io"
	"net/http"
	"strings"
)

// ContentType is the exposition format's HTTP Content-Type.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Type is a family's TYPE line value.
type Type string

// The sample types the writer emits.
const (
	Counter Type = "counter"
	Gauge   Type = "gauge"
	Summary Type = "summary"
)

// Writer accumulates one scrape. The zero value is ready to use; a Writer
// is not safe for concurrent use.
type Writer struct {
	b     strings.Builder
	owned map[string]bool
}

// open claims name for this scrape and, on its first offer with n > 0
// series to follow, writes its HELP and TYPE lines. It reports whether the
// caller should write the n samples.
func (w *Writer) open(name, help string, typ Type, n int) bool {
	if w.owned == nil {
		w.owned = make(map[string]bool)
	}
	if w.owned[name] {
		return false
	}
	w.owned[name] = true
	if n == 0 {
		return false
	}
	fmt.Fprintf(&w.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	return true
}

// Metric writes one unlabelled counter or gauge.
func (w *Writer) Metric(name, help string, typ Type, v float64) {
	if w.open(name, help, typ, 1) {
		fmt.Fprintf(&w.b, "%s %g\n", name, v)
	}
}

// Family writes one family of n series that differ in one label: sample(i)
// returns series i's label value and sample value. A family with no series
// writes nothing.
func (w *Writer) Family(name, help string, typ Type, label string, n int, sample func(i int) (string, float64)) {
	if !w.open(name, help, typ, n) {
		return
	}
	for i := 0; i < n; i++ {
		lv, v := sample(i)
		fmt.Fprintf(&w.b, "%s{%s=%q} %g\n", name, label, lv, v)
	}
}

// Info writes the gauge name{label="value"} 1, or nothing when value is
// empty.
func (w *Writer) Info(name, help, label, value string) {
	w.Family(name, help, Gauge, label, min(len(value), 1), func(int) (string, float64) { return value, 1 })
}

// Quantiles writes a summary carrying only its 0.5 and 0.99 quantiles.
func (w *Writer) Quantiles(name, help string, p50, p99 float64) {
	w.Family(name, help, Summary, "quantile", 2, func(i int) (string, float64) {
		return [2]string{"0.5", "0.99"}[i], [2]float64{p50, p99}[i]
	})
}

// String returns the exposition written so far.
func (w *Writer) String() string { return w.b.String() }

// Handler serves one scrape per request: fill writes the families into a
// fresh Writer, which is then sent with the exposition Content-Type.
func Handler(fill func(*Writer)) http.HandlerFunc {
	return func(rw http.ResponseWriter, _ *http.Request) {
		var w Writer
		fill(&w)
		rw.Header().Set("Content-Type", ContentType)
		_, _ = io.WriteString(rw, w.String())
	}
}
