package serve

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"apspark/internal/obs"
)

// Serving hardening: the middleware stack that stands between the
// listener and the query handlers. Harden wraps a handler with (outside
// to inside) observation (metrics + access log + pprof labels), panic
// recovery, bounded in-flight admission, and a per-request deadline;
// Gate fronts the whole stack while the store is still opening, so the
// listener — and /healthz — are up from the first millisecond of the
// process.

// HardenOptions configures Harden. The zero value disables every layer
// except panic recovery, which is always on.
type HardenOptions struct {
	// MaxInFlight bounds the requests being served at once; excess
	// requests are rejected immediately with 429 and a Retry-After hint
	// rather than queued (a queue just moves the overload into memory).
	// /healthz is exempt: probes must see past the overload they are
	// there to detect. <= 0 means unlimited.
	MaxInFlight int
	// Timeout is the per-request wall-clock budget, enforced through the
	// request context so store reads stop at the deadline; the handler
	// then answers 504. <= 0 means no deadline beyond the server's own
	// read/write timeouts.
	Timeout time.Duration
	// Metrics, when set, records per-endpoint request counters
	// (apsp_http_requests_total{endpoint,code}), latency summaries
	// (apsp_http_request_seconds{endpoint}), response bytes, an in-flight
	// gauge, and admission rejections into the registry. The observation
	// wrapper sits outside recovery and admission, so every outcome —
	// 429 sheds, 504 deadline expiries, panics recovered to 500 — is
	// counted with its real status, latency and bytes written.
	Metrics *obs.Registry
	// AccessLog, when set, logs one structured line per request with
	// method, path, status, bytes and latency — again for every outcome,
	// not just handler successes.
	AccessLog *slog.Logger
	// PprofLabels tags each request's goroutine with runtime/pprof labels
	// (endpoint, shard) so CPU and heap profiles attribute samples to the
	// endpoint (and shard) that burned them. Off by default: it costs a
	// small allocation per request.
	PprofLabels bool
	// Shard is the shard identity this process serves, attached to pprof
	// labels and access-log lines; purely informational until the
	// distributed serving tier lands.
	Shard string
}

// Harden wraps h with the serving protection stack described by opts.
func Harden(h http.Handler, opts HardenOptions) http.Handler {
	inner := h
	if opts.Timeout > 0 {
		inner = withTimeout(inner, opts.Timeout)
	}
	if opts.MaxInFlight > 0 {
		inner = withAdmission(inner, opts)
	}
	inner = withRecovery(inner)
	if opts.Metrics != nil || opts.AccessLog != nil || opts.PprofLabels {
		inner = withObs(inner, opts)
	}
	return inner
}

// withRecovery converts a handler panic into a 500 instead of killing
// the connection's goroutine with a stack dump mid-response. The one
// deliberate panic of net/http, http.ErrAbortHandler, passes through —
// it is the documented way to abort a response.
func withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if p == http.ErrAbortHandler {
				panic(p)
			}
			slog.Error("panic serving request",
				"method", r.Method, "path", r.URL.Path, "panic", p, "stack", string(debug.Stack()))
			// If the handler already wrote a partial body this write is
			// moot (net/http discards the late header), but the client
			// still sees a broken response instead of a hung one.
			writeError(w, http.StatusInternalServerError, fmt.Errorf("internal error"))
		}()
		next.ServeHTTP(w, r)
	})
}

// retryAfter is the Retry-After hint, in seconds, sent with a 429.
const retryAfter = "1"

// withAdmission bounds concurrent requests with a semaphore, shedding
// the excess as 429 + Retry-After.
func withAdmission(next http.Handler, opts HardenOptions) http.Handler {
	sem := make(chan struct{}, opts.MaxInFlight)
	var rejected *obs.Counter
	if opts.Metrics != nil {
		rejected = opts.Metrics.Counter("apsp_http_admission_rejected_total",
			"Requests shed with 429 by the in-flight admission limit.")
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" || r.URL.Path == "/metrics" {
			// Probes and scrapes must see past the overload they exist to
			// detect.
			next.ServeHTTP(w, r)
			return
		}
		select {
		case sem <- struct{}{}:
			defer func() { <-sem }()
			next.ServeHTTP(w, r)
		default:
			if rejected != nil {
				rejected.Inc()
			}
			w.Header().Set("Retry-After", retryAfter)
			writeError(w, http.StatusTooManyRequests,
				fmt.Errorf("serve: %d requests already in flight, try again in %ss", opts.MaxInFlight, retryAfter))
		}
	})
}

// endpointLabel maps a request path to a bounded metric label: the
// known endpoints verbatim, everything else "other" so an attacker
// cannot explode series cardinality with junk paths.
func endpointLabel(path string) string {
	switch path {
	case "/dist", "/row", "/knn", "/path", "/batch", "/healthz", "/metrics":
		return path
	}
	return "other"
}

// statusWriter captures the status code and body bytes a handler
// writes, so the observation layer can report them for every outcome.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer so streaming still works
// through the wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach interfaces the wrapper
// doesn't re-implement.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// httpObs holds the metric handles of the observation middleware, one
// set per endpoint label: the latency summary and byte counter are
// resolved at wrap time, each {endpoint, code} request counter on the
// first request with that pair, so a request of a pair seen before takes
// no registry lock.
type httpObs struct {
	reg       *obs.Registry
	inFlight  *obs.Gauge
	endpoints map[string]*endpointObs
}

// endpointObs is the metric handles of one endpoint label.
type endpointObs struct {
	latency  *obs.Histogram
	respSize *obs.Counter
	// requests[code] is the apsp_http_requests_total series of the
	// endpoint and status code, nil until a request has had that code.
	requests [600]atomic.Pointer[obs.Counter]
}

func newHTTPObs(reg *obs.Registry) *httpObs {
	o := &httpObs{
		reg:       reg,
		inFlight:  reg.Gauge("apsp_http_in_flight", "Requests currently being served."),
		endpoints: make(map[string]*endpointObs),
	}
	for _, ep := range []string{"/dist", "/row", "/knn", "/path", "/batch", "/healthz", "other"} {
		l := obs.Label{Key: "endpoint", Value: ep}
		o.endpoints[ep] = &endpointObs{
			latency: reg.Histogram("apsp_http_request_seconds",
				"Request latency by endpoint (p50/p99/p999).", l),
			respSize: reg.Counter("apsp_http_response_bytes_total",
				"Response body bytes written by endpoint.", l),
		}
	}
	// /metrics scrapes count their own requests but share the latency
	// and byte series of "other".
	other := o.endpoints["other"]
	o.endpoints["/metrics"] = &endpointObs{latency: other.latency, respSize: other.respSize}
	return o
}

// observe records one finished (or aborted) request to the endpoint
// labelled ep (an endpointLabel).
func (o *httpObs) observe(ep string, status int, bytes int64, d time.Duration) {
	if o == nil {
		return
	}
	e, ok := o.endpoints[ep]
	if !ok {
		ep, e = "other", o.endpoints["other"]
	}
	e.latency.Record(d.Nanoseconds())
	e.respSize.Add(bytes)
	if uint(status) >= uint(len(e.requests)) {
		o.requestCounter(ep, status).Inc()
		return
	}
	c := e.requests[status].Load()
	if c == nil {
		c = o.requestCounter(ep, status)
		e.requests[status].Store(c)
	}
	c.Inc()
}

func (o *httpObs) requestCounter(ep string, status int) *obs.Counter {
	return o.reg.Counter("apsp_http_requests_total", "Requests by endpoint and status code.",
		obs.Label{Key: "endpoint", Value: ep},
		obs.Label{Key: "code", Value: strconv.Itoa(status)},
	)
}

// withObs is the outermost layer: it wraps the ResponseWriter to
// capture status and bytes, then records metrics and the access log in
// a defer — so the record runs for every outcome, including panics that
// recovery converts to 500 and the ErrAbortHandler panic that passes
// through (logged with status 0 replaced by 500). This is what fixes
// the old gap where 429/504 responses written by the hardening layers
// never appeared in any byte or status accounting.
func withObs(next http.Handler, opts HardenOptions) http.Handler {
	var metrics *httpObs
	if opts.Metrics != nil {
		metrics = newHTTPObs(opts.Metrics)
	}
	accessLog := opts.AccessLog
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ep := endpointLabel(r.URL.Path)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		if metrics != nil {
			metrics.inFlight.Add(1)
		}
		defer func() {
			d := time.Since(start)
			status := sw.status
			if status == 0 {
				// Nothing was written: the handler panicked (or aborted)
				// before producing a response.
				status = http.StatusInternalServerError
			}
			if metrics != nil {
				metrics.inFlight.Add(-1)
				metrics.observe(ep, status, sw.bytes, d)
			}
			if accessLog != nil {
				attrs := []any{
					"method", r.Method,
					"path", r.URL.Path,
					"status", status,
					"bytes", sw.bytes,
					"duration_ms", float64(d.Nanoseconds()) / 1e6,
					"remote", r.RemoteAddr,
				}
				if opts.Shard != "" {
					attrs = append(attrs, "shard", opts.Shard)
				}
				accessLog.Info("request", attrs...)
			}
		}()
		if opts.PprofLabels {
			shard := opts.Shard
			if shard == "" {
				shard = "0"
			}
			pprof.Do(r.Context(), pprof.Labels("endpoint", ep, "shard", shard), func(ctx context.Context) {
				next.ServeHTTP(sw, r.WithContext(ctx))
			})
			return
		}
		next.ServeHTTP(sw, r)
	})
}

// withTimeout puts a deadline on each request's context. Store reads and
// batch loops check the context, so a stuck disk turns into a 504 (see
// errStatus) instead of an indefinitely held connection slot.
func withTimeout(next http.Handler, d time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// Gate is an atomically swappable handler that answers for the server
// before it is ready: /healthz reports "loading" and every other route
// is 503 + Retry-After until Ready installs the real handler. It lets
// the listener come up before the store is opened, so orchestrators see
// a live (not-yet-ready) process instead of a connection refusal during
// a slow cold start.
type Gate struct {
	h atomic.Pointer[http.Handler]
}

// NewGate returns a Gate in the loading state.
func NewGate() *Gate { return &Gate{} }

// Ready installs the real handler; all subsequent requests route to it.
func (g *Gate) Ready(h http.Handler) { g.h.Store(&h) }

// ServeHTTP implements http.Handler.
func (g *Gate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if hp := g.h.Load(); hp != nil {
		(*hp).ServeHTTP(w, r)
		return
	}
	if r.URL.Path == "/healthz" {
		writeJSON(w, http.StatusOK, Health{Status: "loading"})
		return
	}
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, fmt.Errorf("serve: still loading the store"))
}
