package obs

import (
	"bytes"
	"log/slog"
	"runtime/debug"
	"strings"
	"testing"
	"time"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("apsp_test_total", "help", Label{Key: "k", Value: "a"})
	c2 := r.Counter("apsp_test_total", "help", Label{Key: "k", Value: "a"})
	if c1 != c2 {
		t.Fatal("same name+labels returned distinct counters")
	}
	c3 := r.Counter("apsp_test_total", "help", Label{Key: "k", Value: "b"})
	if c3 == c1 {
		t.Fatal("distinct labels returned the same counter")
	}
	g1 := r.Gauge("apsp_test_gauge", "help")
	if g1 != r.Gauge("apsp_test_gauge", "help") {
		t.Fatal("same gauge name returned distinct gauges")
	}
	h1 := r.Histogram("apsp_test_seconds", "help")
	if h1 != r.Histogram("apsp_test_seconds", "help") {
		t.Fatal("same histogram name returned distinct histograms")
	}
}

func TestRegistryLabelOrderCanonical(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("apsp_label_total", "h", Label{Key: "a", Value: "1"}, Label{Key: "b", Value: "2"})
	c2 := r.Counter("apsp_label_total", "h", Label{Key: "b", Value: "2"}, Label{Key: "a", Value: "1"})
	if c1 != c2 {
		t.Fatal("label order changed series identity")
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("apsp_conflict", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a gauge under a counter name did not panic")
		}
	}()
	r.Gauge("apsp_conflict", "h")
}

func TestRegistryInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid metric name did not panic")
		}
	}()
	r.Counter("0bad-name", "h")
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("apsp_req_total", "Requests.", Label{Key: "endpoint", Value: "/dist"}).Add(3)
	r.Gauge("apsp_inflight", "In flight.").Set(2)
	r.GaugeFunc("apsp_ratio", "A ratio.", func() float64 { return 0.25 })
	r.CounterFunc("apsp_fn_total", "Func counter.", func() int64 { return 41 })
	h := r.Histogram("apsp_lat_seconds", "Latency.", Label{Key: "endpoint", Value: "/dist"})
	for i := 0; i < 100; i++ {
		h.Record(1_000_000) // 1ms
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP apsp_req_total Requests.",
		"# TYPE apsp_req_total counter",
		`apsp_req_total{endpoint="/dist"} 3`,
		"# TYPE apsp_inflight gauge",
		"apsp_inflight 2",
		"apsp_ratio 0.25",
		"apsp_fn_total 41",
		"# TYPE apsp_lat_seconds summary",
		`apsp_lat_seconds{endpoint="/dist",quantile="0.5"}`,
		`apsp_lat_seconds{endpoint="/dist",quantile="0.99"}`,
		`apsp_lat_seconds{endpoint="/dist",quantile="0.999"}`,
		`apsp_lat_seconds_sum{endpoint="/dist"}`,
		`apsp_lat_seconds_count{endpoint="/dist"} 100`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("apsp_esc_total", "h", Label{Key: "path", Value: "a\"b\\c\nd"}).Inc()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if want := `apsp_esc_total{path="a\"b\\c\nd"} 1`; !strings.Contains(buf.String(), want) {
		t.Errorf("escaped label missing %q in\n%s", want, buf.String())
	}
}

func TestCounterFuncReplace(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("apsp_rep_total", "h", func() int64 { return 1 })
	r.CounterFunc("apsp_rep_total", "h", func() int64 { return 2 })
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "apsp_rep_total 2") {
		t.Errorf("replaced func not in effect:\n%s", buf.String())
	}
}

func TestRegisterProcessMetrics(t *testing.T) {
	r := NewRegistry()
	RegisterProcessMetrics(r)
	RegisterProcessMetrics(r) // idempotent re-registration
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"process_uptime_seconds", "go_goroutines", "go_mem_heap_alloc_bytes",
		"go_gc_cycles_total", "go_mem_alloc_bytes_total", "go_gc_heap_goal_bytes", "go_memory_limit_bytes"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("process metrics missing %s", want)
		}
	}
}

func TestProcessMetricsReadGCPacing(t *testing.T) {
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(1 << 30))
	r := NewRegistry()
	RegisterProcessMetrics(r)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\ngo_memory_limit_bytes 1073741824\n") {
		t.Errorf("go_memory_limit_bytes does not read the 1 GiB limit:\n%s", buf.String())
	}
	if strings.Contains(buf.String(), "\ngo_gc_heap_goal_bytes 0\n") {
		t.Errorf("go_gc_heap_goal_bytes reads 0:\n%s", buf.String())
	}
}

func TestTracerSpans(t *testing.T) {
	r := NewRegistry()
	var logBuf bytes.Buffer
	log := slog.New(slog.NewTextHandler(&logBuf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	tr := NewTracer(r, log)
	sp := tr.Start("stage", "fw-pivot")
	time.Sleep(time.Millisecond)
	sp.End()
	tr.Observe("panel", "dij", 5*time.Millisecond)
	d := r.Histogram("apsp_span_seconds", "", Label{Key: "kind", Value: "stage"}, Label{Key: "name", Value: "fw-pivot"}).Snapshot()
	if d.Count() != 1 {
		t.Fatalf("stage span count = %d, want 1", d.Count())
	}
	if d.Quantile(0.5) < int64(time.Millisecond) {
		t.Errorf("stage span too short: %d ns", d.Quantile(0.5))
	}
	logs := logBuf.String()
	for _, want := range []string{"span begin", "span end", "kind=stage", "name=fw-pivot", "kind=panel"} {
		if !strings.Contains(logs, want) {
			t.Errorf("span log missing %q:\n%s", want, logs)
		}
	}
	// nil tracer is a safe no-op.
	var nilT *Tracer
	nilT.Start("x", "y").End()
	nilT.Observe("x", "y", time.Second)
}

func TestSetupLogging(t *testing.T) {
	t.Cleanup(func() { slog.SetDefault(slog.Default()) })
	var buf bytes.Buffer
	if err := SetupLogging("json", "debug", &buf); err != nil {
		t.Fatal(err)
	}
	slog.Debug("hello", "k", "v")
	if !strings.Contains(buf.String(), `"msg":"hello"`) {
		t.Errorf("json log missing message: %s", buf.String())
	}
	if err := SetupLogging("xml", "info", &buf); err == nil {
		t.Error("unknown format accepted")
	}
	if err := SetupLogging("text", "loud", &buf); err == nil {
		t.Error("unknown level accepted")
	}
}
