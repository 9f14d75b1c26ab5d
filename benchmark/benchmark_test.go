package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"apspark/internal/graph"
)

func streamBytes(seed int64, count int) string {
	perm := sourcePerm(512, seed)
	g := newGenerator(512, mix{kindDist: 60, kindKNN: 20, kindPath: 10, kindRow: 5, kindBatch: 5}, 1.1, perm, seed, 0)
	var b strings.Builder
	for i := 0; i < count; i++ {
		r := g.next()
		b.WriteString(r.wire())
		b.WriteByte('\n')
	}
	return b.String()
}

func TestStreamsFollowTheSeed(t *testing.T) {
	if streamBytes(7, 500) != streamBytes(7, 500) {
		t.Error("request stream differs between two runs of one seed")
	}
	if streamBytes(7, 500) == streamBytes(8, 500) {
		t.Error("request stream is the same for two seeds")
	}
	a, b, c := poissonSchedule(7, 1000, time.Second), poissonSchedule(7, 1000, time.Second), poissonSchedule(8, 1000, time.Second)
	if len(a) != len(b) {
		t.Fatalf("schedule lengths %d and %d for one seed", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule differs at %d for one seed", i)
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("schedule not ascending at %d", i)
		}
	}
	if len(a) == len(c) && a[0] == c[0] {
		t.Error("schedule is the same for two seeds")
	}
	if n := float64(len(a)); math.Abs(n-1000) > 4*math.Sqrt(1000) {
		t.Errorf("1000/s for 1s scheduled %v arrivals", n)
	}
}

func TestMixShares(t *testing.T) {
	m := mix{kindDist: 40, kindKNN: 40, kindPath: 20}
	g := newGenerator(512, m, 0, nil, 3, 0)
	var got [numKinds]int
	const draws = 20000
	for i := 0; i < draws; i++ {
		got[g.next().kind]++
	}
	for k, want := range m {
		if share := 100 * float64(got[k]) / draws; math.Abs(share-float64(want)) > 1.5 {
			t.Errorf("%s: %.1f%% of requests, want %d%%", kindNames[k], share, want)
		}
	}
}

// The hot workload's claim that the verified head covers much of the
// traffic rests on the zipf mass of the most popular ranks.
func TestZipfHeadMass(t *testing.T) {
	const n, head, s, draws = 4096, 16, 1.1, 200000
	var headMass, total float64
	for k := 0; k < n; k++ {
		p := math.Pow(float64(k+1), -s)
		total += p
		if k < head {
			headMass += p
		}
	}
	perm := sourcePerm(n, 5)
	rank := make([]int, n)
	for r, v := range perm {
		rank[v] = r
	}
	g := newGenerator(n, mix{kindDist: 100}, s, perm, 5, 0)
	inHead := 0
	for i := 0; i < draws; i++ {
		if rank[g.source()] < head {
			inHead++
		}
	}
	if got, want := float64(inHead)/draws, headMass/total; math.Abs(got-want) > 0.01 {
		t.Errorf("top %d ranks drew %.3f of the sources, zipf(%.1f) gives %.3f", head, got, s, want)
	}
}

func TestPercentiles(t *testing.T) {
	v := make([]float64, 1000)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, c := range []struct {
		p      float64
		want   float64
		beyond int
	}{{0.5, 500.5, 500}, {0.99, 990.01, 10}, {0.999, 999.001, 1}, {1, 1000, 0}} {
		if got := percentile(v, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("p%v of 1..1000 = %v, want %v", c.p, got, c.want)
		}
		if got := samplesBeyond(len(v), c.p); got != c.beyond {
			t.Errorf("samples beyond p%v of 1000 = %d, want %d", c.p, got, c.beyond)
		}
	}
	// Eight solves: p90 sits 0.3 of the way from the second slowest to the slowest.
	if got, want := percentile([]float64{1, 2, 3, 4, 5, 6, 7, 17}, 0.9), 7+0.3*10; math.Abs(got-want) > 1e-9 {
		t.Errorf("p90 of eight samples = %v, want %v", got, want)
	}
	if got := median([]float64{9, 1, 5, 3}); got != 4 {
		t.Errorf("median = %v, want 4", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(v[:10]); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
}

// TestHostSpeed pins the arithmetic that turns reference samples into the
// factor the reported times carry, and that a pass allocates nothing (it
// runs between timed windows and must leave no garbage to them).
func TestHostSpeed(t *testing.T) {
	h := &hostSpeed{sampleMs: []float64{20, 10, 12, 40}}
	// Lower quartile of 10, 12, 20, 40 is 10 + 0.75*(12-10).
	if got := h.referenceMs(); math.Abs(got-11.5) > 1e-9 {
		t.Errorf("reference time = %v ms, want 11.5", got)
	}
	if got, want := h.factor(), calNominalMs/11.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("factor = %v, want %v", got, want)
	}
	if got := (&hostSpeed{}).factor(); got != 1 {
		t.Errorf("factor without samples = %v, want 1", got)
	}
	var live hostSpeed
	live.sample()
	if len(live.sampleMs) != 1 || !(live.sampleMs[0] > 0) {
		t.Fatalf("sample() left %v", live.sampleMs)
	}
	if allocs := testing.AllocsPerRun(3, func() { cal.pass() }); allocs != 0 {
		t.Errorf("a reference pass allocates %v times, want 0", allocs)
	}
}

func TestParseMetrics(t *testing.T) {
	const sample = `# HELP apsp_http_request_seconds Request latency.
# TYPE apsp_http_request_seconds summary
apsp_http_request_seconds{endpoint="/knn",quantile="0.5"} 0.009961471
apsp_http_request_seconds_sum{endpoint="/knn"} 0.053790674
apsp_http_request_seconds_count{endpoint="/knn"} 5
apsp_store_cache_hits_total{cache="tile"} 16
apsp_serve_source_info{kind="store with space"} 1
go_gc_cycles_total 8
`
	m, err := parseMetrics(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]float64{
		`apsp_http_request_seconds_sum{endpoint="/knn"}`:   0.053790674,
		`apsp_http_request_seconds_count{endpoint="/knn"}`: 5,
		`apsp_store_cache_hits_total{cache="tile"}`:        16,
		`apsp_serve_source_info{kind="store with space"}`:  1,
		`go_gc_cycles_total`:                               8,
	} {
		if got, ok := m[key]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", key, got, ok, want)
		}
	}
	after := map[string]float64{"go_gc_cycles_total": 11}
	if d, err := delta(m, after, "go_gc_cycles_total"); err != nil || d != 3 {
		t.Errorf("delta = %v, %v; want 3", d, err)
	}
	if _, err := delta(m, after, "renamed_total"); err == nil {
		t.Error("a series missing from the scrape read as a delta")
	}
	if _, err := parseMetrics(strings.NewReader("apsp_x{a=\"b\"} notanumber\n")); err == nil {
		t.Error("a non-numeric sample parsed")
	}
}

func TestSpanSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Group: 1, Name: "rep", Start: 0, End: 100},
		{ID: 1, Parent: 0, Group: 1, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Group: 1, Name: "b", Start: 30, End: 60},    // overlaps a by 10
		{ID: 3, Parent: 0, Group: 1, Name: "c", Start: 90, End: 120},   // overhangs the parent by 20
		{ID: 4, Parent: 1, Group: 1, Name: "leaf", Start: 15, End: 20}, // grandchild
		{ID: 5, Parent: -1, Group: 2, Name: "rep", Start: 200, End: 300},
		{ID: 6, Parent: 5, Group: 2, Name: "a", Start: 200, End: 300},
	}
	sum := summarize(spans)
	for id, want := range map[int]int64{0: 100 - 50 - 10, 1: 25, 2: 30, 3: 30, 4: 5, 5: 0, 6: 100} {
		if spans[id].Self != want {
			t.Errorf("span %d self = %d, want %d", id, spans[id].Self, want)
		}
	}
	if sum.RootNs != 200 {
		t.Errorf("root time = %d, want 200", sum.RootNs)
	}
	if got := sum.MedianSelfNs["a"]; got != (25+100)/2.0 {
		t.Errorf("median self of a = %v, want 62.5", got)
	}
	if want := 1 - 40.0/200; math.Abs(sum.Coverage-want) > 1e-12 {
		t.Errorf("coverage = %v, want %v", sum.Coverage, want)
	}
}

func TestReferenceJudgesAnswers(t *testing.T) {
	// 0 -1- 1 -1- 2 -1- 3, plus a costly chord 0 -5- 3 and a tie: 0 -2- 4, 0 -2- 5.
	g, err := graph.FromEdges(6, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 1}, {U: 0, V: 3, W: 5}, {U: 0, V: 4, W: 2}, {U: 0, V: 5, W: 2}})
	if err != nil {
		t.Fatal(err)
	}
	ref := newReference(g, []int{0}, 0)
	if want := []float64{0, 1, 2, 3, 2, 2}; !ref.rowOK(0, want) {
		t.Errorf("reference row of 0 = %v, want %v", ref.rows[0], want)
	}
	if ref.distOK(0, 3, 5) || !ref.distOK(0, 3, 3) {
		t.Error("distOK accepts the chord length or rejects the shortest distance")
	}
	if !ref.distOK(2, 0, 99) {
		t.Error("a source without a reference row must pass the value check")
	}
	good := []knnTarget{{1, 1}, {2, 2}, {4, 2}}
	if !ref.knnOK(0, 3, good) {
		t.Error("knnOK rejects the right answer")
	}
	if ref.knnOK(0, 3, []knnTarget{{1, 1}, {4, 2}, {2, 2}}) {
		t.Error("knnOK accepts a tie broken against vertex order")
	}
	if ref.knnOK(0, 3, []knnTarget{{1, 1}, {2, 2}, {5, 2}}) {
		t.Error("knnOK accepts the wrong member of a tie")
	}
	if !ref.pathOK(0, 3, 3, []int{0, 1, 2, 3}) {
		t.Error("pathOK rejects the shortest path")
	}
	if ref.pathOK(0, 3, 5, []int{0, 3}) {
		t.Error("pathOK accepts a real but longer path from a reference source")
	}
	if ref.pathOK(0, 3, 3, []int{0, 2, 3}) {
		t.Error("pathOK accepts a hop that is not an edge")
	}
	if ref.pathOK(1, 3, 3, []int{1, 2, 3}) {
		t.Error("pathOK accepts a hop sum that differs from the reported distance")
	}
}

// benchmarkJSON is BENCHMARK.json as the contract defines it.
type benchmarkJSON struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDoc `json:"workloads"`
	EndToEnd   []boundedDoc  `json:"end_to_end"`
	PerLayer   []metricDoc   `json:"per_layer"`
}

type workloadDoc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDoc struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type boundedDoc struct {
	metricDoc
	Bound float64 `json:"bound"`
}

// BENCHMARK.json repeats the workload and metric lists of this package.
// The test fails when they drift; UPDATE_BENCHMARK_JSON=1 rewrites the
// file from the code instead.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	want := benchmarkJSON{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: 24}
	for _, w := range workloads {
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
		want.Workloads = append(want.Workloads, workloadDoc{w.name, w.why})
	}
	for _, d := range endToEnd {
		want.EndToEnd = append(want.EndToEnd, boundedDoc{metricDoc{d.name, d.unit, d.better}, d.bound})
	}
	seen := make(map[string]bool)
	for _, d := range perLayer {
		if seen[d.name] || len(d.name) > 64 || len(d.unit) > 16 {
			t.Errorf("per-layer metric %q: duplicate, or name/unit too long", d.name)
		}
		seen[d.name] = true
		want.PerLayer = append(want.PerLayer, metricDoc{d.name, d.unit, d.better})
	}
	wantBytes, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	wantBytes = append(wantBytes, '\n')
	path := filepath.Join("..", "BENCHMARK.json")
	if os.Getenv("UPDATE_BENCHMARK_JSON") != "" {
		if err := os.WriteFile(path, wantBytes, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantBytes) {
		t.Errorf("%s differs from the lists in workloads.go and metrics.go; run UPDATE_BENCHMARK_JSON=1 go test -run BenchmarkJSON", path)
	}
}

// TestSmokeAllWorkloads runs every workload end to end at the smoke
// scale, spawning a freshly built apsp-serve, untraced; then one traced
// run, whose report must carry every per-layer figure and whose spans
// must add up.
func TestSmokeAllWorkloads(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "apsp-serve")
	if out, err := exec.Command("go", "build", "-o", bin, "apspark/cmd/apsp-serve").CombinedOutput(); err != nil {
		t.Fatalf("build apsp-serve: %v\n%s", err, out)
	}
	cfg := config{seed: 3, seconds: 0.5, sizes: smoke, serveBin: bin, outDir: dir, conns: 2}
	for _, w := range workloads {
		cfg.workload, cfg.workDir = w.name, t.TempDir()
		rep, err := runOne(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Correct || rep.Attempted == 0 || rep.Failed != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, rep.Correct, rep.Attempted, rep.Failed)
		}
		for _, d := range endToEnd {
			if v, ok := rep.Metrics[d.name]; !ok || !(v.Value > 0) || v.Unit != d.unit {
				t.Errorf("%s: %s = %+v (present %v), want a positive value in %s", w.name, d.name, v, ok, d.unit)
			}
		}
		if len(rep.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics reported, want the %d end-to-end ones", w.name, len(rep.Metrics), len(endToEnd))
		}
	}

	cfg.workload, cfg.workDir, cfg.trace = "serve_cold", t.TempDir(), true
	rep, err := runOne(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Metrics) != len(perLayer) {
		t.Errorf("traced run reported %d metrics, want the %d per-layer ones", len(rep.Metrics), len(perLayer))
	}
	for _, name := range []string{"span.client_roundtrip_us", "serve.handler_busy_s", "store.decode_busy_s", "sparse.row_us", "matrix.minplus_b256_ms", "store.row_cold_us.ivarint", "serve.http_dist_us"} {
		if !(rep.Metrics[name].Value > 0) {
			t.Errorf("traced serve_cold: %s = %v, want > 0", name, rep.Metrics[name].Value)
		}
	}
	raw, err := os.ReadFile(filepath.Join(dir, "trace-serve_cold.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Summary traceSummary `json:"summary"`
		Spans   []span       `json:"spans"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Spans) == 0 || doc.Summary.RootNs == 0 {
		t.Fatal("trace has no spans")
	}
	if off := math.Abs(float64(doc.Summary.SelfSumNs-doc.Summary.RootNs)) / float64(doc.Summary.RootNs); off > 0.02 {
		t.Errorf("span self times sum to %d ns, end to end is %d ns: off by %.1f%%", doc.Summary.SelfSumNs, doc.Summary.RootNs, 100*off)
	}
}
