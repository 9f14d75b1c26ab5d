package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"apspark/internal/graph"
	"apspark/internal/obs"
	"apspark/internal/seq"
	"apspark/internal/store"
)

// promSampleRe matches one exposition sample line:
// name{label="v",...} value  (labels optional).
var promSampleRe = regexp.MustCompile(
	`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})? (-?[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?|NaN|[+-]Inf)$`)

// parseProm is the test's tiny Prometheus text-format parser: it
// validates the 0.0.4 exposition line by line (every sample matches the
// grammar, every sample's family was announced by a preceding # TYPE
// line) and returns samples keyed by `name{labels}`.
func parseProm(t *testing.T, body string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	typed := make(map[string]bool)
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			fields := strings.Fields(rest)
			if len(fields) != 2 {
				t.Fatalf("line %d: malformed TYPE line %q", ln+1, line)
			}
			switch fields[1] {
			case "counter", "gauge", "summary", "histogram", "untyped":
			default:
				t.Fatalf("line %d: unknown metric type %q", ln+1, fields[1])
			}
			typed[fields[0]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := promSampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: sample does not match exposition grammar: %q", ln+1, line)
		}
		name := m[1]
		// Summary/histogram child series belong to the base family.
		base := strings.TrimSuffix(strings.TrimSuffix(name, "_sum"), "_count")
		if !typed[name] && !typed[base] {
			t.Fatalf("line %d: sample %q has no preceding # TYPE", ln+1, name)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("line %d: bad value in %q: %v", ln+1, line, err)
		}
		key := name + m[2]
		if _, dup := samples[key]; dup {
			t.Fatalf("line %d: duplicate series %q", ln+1, key)
		}
		samples[key] = v
	}
	return samples
}

// newObsServer stands up the full observable serving stack: store +
// engine + Harden(Metrics, AccessLog) + /metrics on the same mux,
// exactly as apsp-serve wires it.
func newObsServer(t *testing.T, opts HardenOptions) (*httptest.Server, *obs.Registry, *bytes.Buffer) {
	t.Helper()
	g, err := graph.ErdosRenyiPaper(40, 6)
	if err != nil {
		t.Fatal(err)
	}
	dist := seq.Reference(g)
	path := filepath.Join(t.TempDir(), "dist.apsp")
	if err := store.WriteWithCodec(path, dist, 8, store.CodecRaw); err != nil {
		t.Fatal(err)
	}
	st, err := store.OpenWithOptions(path, store.Options{TileCacheBytes: 4 * 8 * 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	e, err := New(st, g)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	st.RegisterMetrics(reg)
	e.RegisterMetrics(reg)
	obs.RegisterProcessMetrics(reg)
	var logBuf bytes.Buffer
	if opts.Metrics == nil {
		opts.Metrics = reg
	}
	if opts.AccessLog == nil {
		opts.AccessLog = slog.New(slog.NewJSONHandler(&logBuf, nil))
	}
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", obs.Handler(reg))
	mux.Handle("/", Harden(Handler(e), opts))
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, reg, &logBuf
}

func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("GET /metrics: content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return parseProm(t, string(body))
}

// TestObsEndToEnd drives every endpoint through the hardened stack and
// asserts the scrape reflects each request with correct endpoint, code,
// latency count and byte accounting — and that store cache metrics from
// the same scrape advance as tiles are pulled.
func TestObsEndToEnd(t *testing.T) {
	srv, _, logBuf := newObsServer(t, HardenOptions{PprofLabels: true, Shard: "t0"})

	before := scrape(t, srv.URL)

	var dr struct {
		Dist *float64 `json:"dist"`
	}
	getJSON(t, srv.URL+"/dist?from=0&to=5", http.StatusOK, &dr)
	getJSON(t, srv.URL+"/dist?from=3&to=9", http.StatusOK, &dr)
	var rr struct {
		Dist []*float64 `json:"dist"`
	}
	getJSON(t, srv.URL+"/row?from=7", http.StatusOK, &rr)
	var kr struct {
		Targets []Target `json:"targets"`
	}
	getJSON(t, srv.URL+"/knn?from=7&k=5", http.StatusOK, &kr)
	resp, err := http.Get(srv.URL + "/path?from=0&to=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	body, _ := json.Marshal(&BatchRequest{Dist: []PairQuery{{From: 0, To: 5}}})
	postBatch(t, srv.URL, string(body), http.StatusOK).Body.Close()
	var h Health
	getJSON(t, srv.URL+"/healthz", http.StatusOK, &h)
	// Unknown path: must land under endpoint="other", not a new series.
	if resp, err := http.Get(srv.URL + "/nope?x=1"); err == nil {
		resp.Body.Close()
	}
	// Bad request: counted under its real code.
	if resp, err := http.Get(srv.URL + "/dist?from=-1&to=5"); err == nil {
		resp.Body.Close()
	}

	after := scrape(t, srv.URL)
	adv := func(key string) float64 { return after[key] - before[key] }

	for key, want := range map[string]float64{
		`apsp_http_requests_total{code="200",endpoint="/dist"}`:  2,
		`apsp_http_requests_total{code="200",endpoint="/row"}`:   1,
		`apsp_http_requests_total{code="200",endpoint="/knn"}`:   1,
		`apsp_http_requests_total{code="200",endpoint="/path"}`:  1,
		`apsp_http_requests_total{code="200",endpoint="/batch"}`: 1,
		`apsp_http_requests_total{code="400",endpoint="/dist"}`:  1,
		`apsp_http_request_seconds_count{endpoint="/dist"}`:      3,
		`apsp_http_request_seconds_count{endpoint="/row"}`:       1,
	} {
		if got := adv(key); got != want {
			t.Errorf("%s advanced by %v, want %v", key, got, want)
		}
	}
	// healthz and the unknown path are observed too (code may be 200/404).
	if adv(`apsp_http_requests_total{code="200",endpoint="/healthz"}`) != 1 {
		t.Errorf("healthz not counted")
	}
	otherSeen := false
	for key := range after {
		if strings.HasPrefix(key, `apsp_http_requests_total{`) && strings.Contains(key, `endpoint="other"`) {
			otherSeen = true
		}
		if strings.Contains(key, "/nope") {
			t.Errorf("unbounded endpoint label leaked: %s", key)
		}
	}
	if !otherSeen {
		t.Errorf("unknown path not counted under endpoint=other")
	}
	if adv(`apsp_http_response_bytes_total{endpoint="/row"}`) <= 0 {
		t.Errorf("row response bytes not accounted")
	}
	if after[`apsp_http_in_flight`] != 0 {
		t.Errorf("in-flight gauge = %v after quiesce, want 0", after[`apsp_http_in_flight`])
	}

	// Store cache metrics come from the same scrape: the queries above
	// must have produced reads.
	hits := adv(`apsp_store_cache_hits_total{cache="row"}`) + adv(`apsp_store_cache_misses_total{cache="row"}`) +
		adv(`apsp_store_cache_hits_total{cache="tile"}`) + adv(`apsp_store_cache_misses_total{cache="tile"}`)
	if hits <= 0 {
		t.Errorf("store cache counters did not advance across queries")
	}
	// Process metrics present and sane.
	if after[`go_goroutines`] <= 0 {
		t.Errorf("go_goroutines = %v", after[`go_goroutines`])
	}
	if _, ok := after[`process_uptime_seconds`]; !ok {
		t.Errorf("process_uptime_seconds missing")
	}

	// Access log: one line per request, JSON, with status and bytes.
	var logged int
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("access log line is not JSON: %q", line)
		}
		if rec["msg"] == "request" {
			logged++
			for _, k := range []string{"method", "path", "status", "bytes", "duration_ms", "shard"} {
				if _, ok := rec[k]; !ok {
					t.Errorf("access log line missing %q: %v", k, rec)
				}
			}
		}
	}
	if logged < 9 {
		t.Errorf("access log has %d request lines, want >= 9", logged)
	}
}

// TestObsSheddingCounted: 429 rejections written by the admission layer
// itself — not the handler — still get status, latency and bytes
// accounting. This is the regression test for the old gap where
// middleware-written responses bypassed observation.
func TestObsSheddingCounted(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
		w.WriteHeader(http.StatusOK)
	})
	reg := obs.NewRegistry()
	srv := httptest.NewServer(Harden(slow, HardenOptions{MaxInFlight: 1, Metrics: reg}))
	defer srv.Close()

	errc := make(chan error, 1)
	go func() {
		resp, err := http.Get(srv.URL + "/dist?from=0&to=1")
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	<-entered
	resp, err := http.Get(srv.URL + "/dist?from=2&to=3")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: status %d, want 429", resp.StatusCode)
	}
	close(release)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples := parseProm(t, buf.String())
	if got := samples[`apsp_http_requests_total{code="429",endpoint="/dist"}`]; got != 1 {
		t.Errorf("429 count = %v, want 1", got)
	}
	if got := samples[`apsp_http_admission_rejected_total`]; got != 1 {
		t.Errorf("admission rejected = %v, want 1", got)
	}
	if got := samples[`apsp_http_response_bytes_total{endpoint="/dist"}`]; got <= 0 {
		t.Errorf("429 body bytes = %v, want > 0", got)
	}
}

// TestObsPanicCounted: a handler panic recovered into a 500 is observed
// with that status.
func TestObsPanicCounted(t *testing.T) {
	boom := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	})
	reg := obs.NewRegistry()
	srv := httptest.NewServer(Harden(boom, HardenOptions{Metrics: reg}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/row?from=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples := parseProm(t, buf.String())
	if got := samples[`apsp_http_requests_total{code="500",endpoint="/row"}`]; got != 1 {
		t.Errorf("500 count = %v, want 1", got)
	}
}

// TestObsTimeoutCounted: a request that runs past the per-request
// deadline and answers 504 is observed with that status and a latency
// at least the deadline.
func TestObsTimeoutCounted(t *testing.T) {
	stall := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
		writeError(w, http.StatusGatewayTimeout, fmt.Errorf("deadline: %w", r.Context().Err()))
	})
	reg := obs.NewRegistry()
	srv := httptest.NewServer(Harden(stall, HardenOptions{Timeout: 20 * time.Millisecond, Metrics: reg}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/knn?from=0&k=3")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples := parseProm(t, buf.String())
	if got := samples[`apsp_http_requests_total{code="504",endpoint="/knn"}`]; got != 1 {
		t.Errorf("504 count = %v, want 1", got)
	}
	if got := samples[`apsp_http_request_seconds{endpoint="/knn",quantile="0.5"}`]; got < 0.02 {
		t.Errorf("504 latency p50 = %vs, want >= deadline (0.02s)", got)
	}
}

// TestObsMetricsExemptFromAdmission: scrapes see past overload.
func TestObsMetricsExemptFromAdmission(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	reg := obs.NewRegistry()
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", obs.Handler(reg))
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
	})
	srv := httptest.NewServer(Harden(mux, HardenOptions{MaxInFlight: 1, Metrics: reg}))
	defer srv.Close()
	done := make(chan struct{})
	go func() {
		resp, err := http.Get(srv.URL + "/dist?from=0&to=1")
		if err == nil {
			resp.Body.Close()
		}
		close(done)
	}()
	<-entered
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape under overload: status %d, want 200", resp.StatusCode)
	}
	close(release)
	<-done
}

// TestObserveMatchesRegistryLookups: requests observed through httpObs,
// which keeps each {endpoint, code} counter after its first request, and
// through one registry lookup per request for every series expose the
// same /metrics text, byte for byte, after every request: a request
// counter appears only once its pair has been seen. Codes past the kept
// range (600 and up) still count.
func TestObserveMatchesRegistryLookups(t *testing.T) {
	got, want := obs.NewRegistry(), obs.NewRegistry()
	o := newHTTPObs(got)
	want.Gauge("apsp_http_in_flight", "Requests currently being served.")
	for _, ep := range []string{"/dist", "/row", "/knn", "/path", "/batch", "/healthz", "other"} {
		l := obs.Label{Key: "endpoint", Value: ep}
		want.Histogram("apsp_http_request_seconds", "Request latency by endpoint (p50/p99/p999).", l)
		want.Counter("apsp_http_response_bytes_total", "Response body bytes written by endpoint.", l)
	}
	requests := []struct {
		ep     string
		status int
	}{
		{"/dist", 200}, {"/dist", 200}, {"/row", 404}, {"/metrics", 200}, {"/dist", 400}, {"other", 404},
		{"/batch", 200}, {"/knn", 999}, {"/knn", 999}, {"/path", 599}, {"/healthz", 200}, {"/metrics", 200},
		{"/dist", 200}, {"/row", 500}, {"/knn", 504}, {"/dist", 429},
	}
	for i, r := range requests {
		d, n := time.Duration(i+1)*time.Millisecond, int64(100*i)
		o.observe(r.ep, r.status, n, d)
		shared := r.ep
		if shared == "/metrics" {
			shared = "other"
		}
		l := obs.Label{Key: "endpoint", Value: shared}
		want.Histogram("apsp_http_request_seconds", "Request latency by endpoint (p50/p99/p999).", l).Record(d.Nanoseconds())
		want.Counter("apsp_http_response_bytes_total", "Response body bytes written by endpoint.", l).Add(n)
		want.Counter("apsp_http_requests_total", "Requests by endpoint and status code.",
			obs.Label{Key: "endpoint", Value: r.ep}, obs.Label{Key: "code", Value: strconv.Itoa(r.status)}).Inc()
		var gotText, wantText bytes.Buffer
		if err := got.WritePrometheus(&gotText); err != nil {
			t.Fatal(err)
		}
		if err := want.WritePrometheus(&wantText); err != nil {
			t.Fatal(err)
		}
		if gotText.String() != wantText.String() {
			t.Fatalf("after request %d (%s %d):\n%s\nwant:\n%s", i, r.ep, r.status, gotText.String(), wantText.String())
		}
	}
}

// TestObserveWarmZeroAllocs: observing a request whose {endpoint, code}
// pair has been seen before allocates nothing.
func TestObserveWarmZeroAllocs(t *testing.T) {
	o := newHTTPObs(obs.NewRegistry())
	o.observe("/dist", 200, 64, time.Millisecond)
	if allocs := testing.AllocsPerRun(100, func() { o.observe("/dist", 200, 64, time.Millisecond) }); allocs != 0 {
		t.Fatalf("a warm observe allocates %v times, want 0", allocs)
	}
}

// TestObserveConcurrentFirstRequests: requests of the same new pairs
// observed from many goroutines at once are each counted once, whichever
// of them resolves the pair's counter.
func TestObserveConcurrentFirstRequests(t *testing.T) {
	reg := obs.NewRegistry()
	o := newHTTPObs(reg)
	const workers, each = 8, 300
	codes := []int{200, 400, 404, 500, 999}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				o.observe("/dist", codes[i%len(codes)], 1, time.Microsecond)
			}
		}()
	}
	wg.Wait()
	var text bytes.Buffer
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	samples := parseProm(t, text.String())
	for _, code := range codes {
		key := fmt.Sprintf(`apsp_http_requests_total{code="%d",endpoint="/dist"}`, code)
		if got, want := samples[key], float64(workers*each/len(codes)); got != want {
			t.Errorf("%s = %v, want %v", key, got, want)
		}
	}
}
