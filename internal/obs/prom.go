package obs

import (
	"bytes"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"
)

// Quantiles extracted for histogram exposition.
var exportQuantiles = []struct {
	label string
	q     float64
}{
	{"0.5", 0.5},
	{"0.99", 0.99},
	{"0.999", 0.999},
}

// WritePrometheus writes the registry in Prometheus text exposition
// format (version 0.0.4): families in registration order, each with
// # HELP and # TYPE lines, series in registration order. Histograms are
// exposed as summaries — p50/p99/p999 quantile series in seconds plus
// _sum (seconds) and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var buf bytes.Buffer
	r.mu.Lock()
	for _, f := range r.order {
		buf.WriteString("# HELP ")
		buf.WriteString(f.name)
		buf.WriteByte(' ')
		buf.WriteString(escapeHelp(f.help))
		buf.WriteByte('\n')
		buf.WriteString("# TYPE ")
		buf.WriteString(f.name)
		buf.WriteByte(' ')
		buf.WriteString(f.kind.String())
		buf.WriteByte('\n')
		for _, s := range f.seriesOrder {
			writeSeries(&buf, f, s)
		}
	}
	r.mu.Unlock()
	_, err := w.Write(buf.Bytes())
	return err
}

func writeSeries(buf *bytes.Buffer, f *family, s *series) {
	switch {
	case s.c != nil:
		writeSample(buf, f.name, "", s.labels, "", float64(s.c.Value()))
	case s.cf != nil:
		writeSample(buf, f.name, "", s.labels, "", float64(s.cf()))
	case s.g != nil:
		writeSample(buf, f.name, "", s.labels, "", float64(s.g.Value()))
	case s.gf != nil:
		writeSample(buf, f.name, "", s.labels, "", s.gf())
	case s.h != nil:
		d := s.h.Snapshot()
		for _, eq := range exportQuantiles {
			writeSample(buf, f.name, "", s.labels, `quantile="`+eq.label+`"`, float64(d.Quantile(eq.q))/1e9)
		}
		writeSample(buf, f.name, "_sum", s.labels, "", float64(d.Sum())/1e9)
		writeSample(buf, f.name, "_count", s.labels, "", float64(d.Count()))
	}
}

// writeSample emits one `name{labels,extra} value` line.
func writeSample(buf *bytes.Buffer, name, suffix, labels, extra string, v float64) {
	buf.WriteString(name)
	buf.WriteString(suffix)
	if labels != "" || extra != "" {
		buf.WriteByte('{')
		buf.WriteString(labels)
		if labels != "" && extra != "" {
			buf.WriteByte(',')
		}
		buf.WriteString(extra)
		buf.WriteByte('}')
	}
	buf.WriteByte(' ')
	b := buf.AvailableBuffer()
	// Counters and integer gauges format without an exponent; float
	// gauges and quantile seconds use the shortest round-trip form.
	if v == float64(int64(v)) {
		b = strconv.AppendInt(b, int64(v), 10)
	} else {
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	buf.Write(b)
	buf.WriteByte('\n')
}

// Handler returns an http.Handler exposing the registry in Prometheus
// text format, for mounting at GET /metrics.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

var processStart = time.Now()

// memStatsReader caches runtime.ReadMemStats for a second so several
// function gauges in one scrape share a single (stop-the-world) read.
type memStatsReader struct {
	mu   sync.Mutex
	at   time.Time
	stat runtime.MemStats
}

var memReader memStatsReader

func (m *memStatsReader) read() runtime.MemStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	if time.Since(m.at) > time.Second || m.at.IsZero() {
		runtime.ReadMemStats(&m.stat)
		m.at = time.Now()
	}
	return m.stat
}

// RegisterProcessMetrics adds process-level gauges and counters
// (uptime, goroutines, heap, GC) to r. Safe to call more than once.
func RegisterProcessMetrics(r *Registry) {
	r.GaugeFunc("process_uptime_seconds", "Seconds since the process started.",
		func() float64 { return time.Since(processStart).Seconds() })
	r.GaugeFunc("go_goroutines", "Number of goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	r.GaugeFunc("go_mem_heap_alloc_bytes", "Bytes of allocated heap objects.",
		func() float64 { return float64(memReader.read().HeapAlloc) })
	r.CounterFunc("go_mem_alloc_bytes_total", "Cumulative bytes allocated for heap objects.",
		func() int64 { return int64(memReader.read().TotalAlloc) })
	r.CounterFunc("go_gc_cycles_total", "Completed GC cycles.",
		func() int64 { return int64(memReader.read().NumGC) })
}
