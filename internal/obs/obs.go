// Package obs is the repo's dependency-free observability core: atomic
// counters and gauges, lock-free sharded HDR-style latency histograms
// with p50/p99/p999 extraction, a process-wide named metric registry
// with a Prometheus-text-format exposition handler, structured logging
// setup over log/slog, and lightweight span tracing for solve stages
// and query requests.
//
// The package deliberately has no dependencies beyond the standard
// library so every layer (store, serve, sparse, rdd, the binaries) can
// import it without cycles or bloat. Metric registration is
// programmer-driven wiring, so malformed names and kind conflicts
// panic rather than returning errors nobody checks at init time.
package obs

import (
	"fmt"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 metric. The zero value is
// ready to use; all methods are safe for concurrent use.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the exposition to stay monotone; this
// is not enforced on the hot path).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an int64 metric that can go up and down. The zero value is
// ready to use; all methods are safe for concurrent use.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Label is one constant key=value pair attached to a metric series.
type Label struct {
	Key   string
	Value string
}

// validMetricName reports whether name matches the Prometheus metric
// name grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// validLabelKey reports whether key matches [a-zA-Z_][a-zA-Z0-9_]*.
func validLabelKey(key string) bool {
	if key == "" {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func mustValidName(name string) {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
}
