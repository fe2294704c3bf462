package phishinghook

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// expoFamily is one family of a parsed /metrics scrape.
type expoFamily struct {
	help, typ int // HELP / TYPE lines seen
	kind      string
	samples   int
}

// parseExposition checks a Prometheus text scrape for the properties a
// scraper relies on: every family has exactly one HELP and one TYPE line,
// both before its first sample; a family's lines are contiguous (no family
// name repeats); no (name, label set) pair repeats; every value parses as a
// float. It returns the families by name.
func parseExposition(t *testing.T, text string) map[string]*expoFamily {
	t.Helper()
	fams := map[string]*expoFamily{}
	series := map[string]bool{}
	cur := ""
	enter := func(name string) *expoFamily {
		f, ok := fams[name]
		if ok && name != cur {
			t.Errorf("family %s repeats after %s", name, cur)
		}
		if !ok {
			f = &expoFamily{}
			fams[name] = f
		}
		cur = name
		return f
	}
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ := strings.Cut(rest, " ")
			f := enter(name)
			f.help++
			if f.help > 1 || f.samples > 0 {
				t.Errorf("family %s: HELP #%d after %d samples", name, f.help, f.samples)
			}
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			f := enter(name)
			f.typ++
			f.kind = kind
			if f.typ > 1 || f.samples > 0 {
				t.Errorf("family %s: TYPE #%d after %d samples", name, f.typ, f.samples)
			}
			switch kind {
			case "counter", "gauge", "summary", "histogram", "untyped":
			default:
				t.Errorf("family %s: unknown TYPE %q", name, kind)
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Errorf("malformed sample line %q", line)
			continue
		}
		key, val := line[:i], line[i+1:]
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			t.Errorf("sample %q: value %q is not a float", key, val)
		}
		if series[key] {
			t.Errorf("series %s repeats", key)
		}
		series[key] = true
		name, _, _ := strings.Cut(key, "{")
		fam := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suffix); base != name && fams[base] != nil &&
				(fams[base].kind == "histogram" || fams[base].kind == "summary") {
				fam = base
			}
		}
		f := enter(fam)
		if f.help != 1 || f.typ != 1 {
			t.Errorf("sample %s before its family's HELP/TYPE (help=%d type=%d)", key, f.help, f.typ)
		}
		f.samples++
	}
	for name, f := range fams {
		if f.help != 1 || f.typ != 1 {
			t.Errorf("family %s has %d HELP and %d TYPE lines, want 1 each", name, f.help, f.typ)
		}
	}
	return fams
}

// TestMetricsExpositionValid serves one handler with every attachment — a
// lifecycle handle with evasion telemetry, a watcher and a backfill (which
// share the pipeline and endpoint families), the tx scorer and tx watcher,
// and a retrainer — and checks the scrape is valid exposition that carries
// each attachment's families.
func TestMetricsExpositionValid(t *testing.T) {
	ctx := context.Background()
	d1, d2 := trainPair(t)
	store, err := OpenModelStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	lc, err := NewLifecycle(store, WithEvasionTelemetry())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Handle().Close)
	v1, err := lc.SaveVersion(d1, ModelMeta{TrainFrom: 0, TrainTo: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := lc.Deploy(v1.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := lc.SaveVersion(d2, ModelMeta{TrainFrom: 0, TrainTo: 12, Parent: v1.ID}); err != nil {
		t.Fatal(err)
	}
	ds, _ := testCorpus(t)
	if _, err := lc.Handle().ScoreBatch(ctx, [][]byte{ds.Samples[0].Bytecode}); err != nil {
		t.Fatal(err)
	}
	rtr, err := NewRetrainer(RetrainerConfig{Train: func(context.Context, DriftReport) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}

	sim := startSim(t, 29)
	w, err := NewWatcher(d1, WatcherConfig{RPCURL: sim.RPCURL(), ExplorerURL: sim.ExplorerURL()})
	if err != nil {
		t.Fatal(err)
	}
	from, _ := sim.StudyWindow()
	b, err := NewBackfill(d1, BackfillConfig{
		RPCURLs:     sim.AddRPCEndpoints(2, 0, 0),
		ExplorerURL: sim.ExplorerURL(),
		From:        from,
		To:          sim.TailBlock(),
		Shards:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Run(ctx); err != nil {
		t.Fatal(err)
	}
	tsim := startSim(t, 31)
	if err := tsim.GoLive(10); err != nil {
		t.Fatal(err)
	}
	start, tail := tsim.HeadBlock(), tsim.TailBlock()
	fused, _, _ := trainFusedPair(t, tsim)
	tw, err := NewTxWatcher(fused, TxWatcherConfig{
		RPCURL:       tsim.RPCURL(),
		PollInterval: time.Millisecond,
		StartBlock:   start,
		StopAtBlock:  tail,
	})
	if err != nil {
		t.Fatal(err)
	}
	tsim.AdvanceBlocks(tail - tsim.HeadBlock())
	if err := tw.Run(ctx); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(NewScoreHandler(lc.Handle(), WithLifecycle(lc),
		WithWatcher(w), WithBackfill(b), WithTxScorer(fused), WithTxWatcher(tw), WithRetrainer(rtr)))
	t.Cleanup(srv.Close)
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams := parseExposition(t, string(blob))
	for _, prefix := range []string{
		"phishinghook_tx_",
		"phishinghook_adversary_",
		"phishinghook_retrainer_",
		"phishinghook_monitor_",
		"phishinghook_rpc_endpoint_",
		"phishinghook_backfill_shard_",
		"phishinghook_version_",
	} {
		n := 0
		for name, f := range fams {
			if strings.HasPrefix(name, prefix) {
				n += f.samples
			}
		}
		if n == 0 {
			t.Errorf("no %s* series in the all-attachments scrape", prefix)
		}
	}
}
