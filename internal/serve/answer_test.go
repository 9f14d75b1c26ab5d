package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"apspark/internal/matrix"
	"apspark/internal/seq"
	"apspark/internal/store"
)

// The reference: the response structs the HTTP layer once handed to
// json.Encoder. Every answer the append writers produce must be these
// structs' encoding, byte for byte.

type refDist float64

func (d refDist) MarshalJSON() ([]byte, error) {
	if math.IsInf(float64(d), 0) || math.IsNaN(float64(d)) {
		return []byte("null"), nil
	}
	return json.Marshal(float64(d))
}

type refDistResponse struct {
	From int     `json:"from"`
	To   int     `json:"to"`
	Dist refDist `json:"dist"`
}

type refRowResponse struct {
	From  int       `json:"from"`
	N     int       `json:"n"`
	Dist  []refDist `json:"dist,omitempty"`
	Error string    `json:"error,omitempty"`
}

type refKNNTarget struct {
	To   int     `json:"to"`
	Dist refDist `json:"dist"`
}

type refKNNResponse struct {
	From    int            `json:"from"`
	K       int            `json:"k"`
	Targets []refKNNTarget `json:"targets"`
}

type refPathResponse struct {
	From int     `json:"from"`
	To   int     `json:"to"`
	Dist refDist `json:"dist"`
	Hops []int   `json:"hops"`
}

type refBatchResponse struct {
	Dist []refDistResponse `json:"dist,omitempty"`
	Row  []refRowResponse  `json:"row,omitempty"`
	KNN  []refKNNResponse  `json:"knn,omitempty"`
	Path []refPathResponse `json:"path,omitempty"`
}

func refEncode(t testing.TB, v any) string {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func refRow(row []float64) []refDist {
	out := make([]refDist, len(row))
	for i, v := range row {
		out[i] = refDist(v)
	}
	return out
}

func refTargets(ts []Target) []refKNNTarget {
	out := make([]refKNNTarget, len(ts))
	for i, t := range ts {
		out[i] = refKNNTarget{To: t.To, Dist: refDist(t.Dist)}
	}
	return out
}

// valueCorpus holds the values where integer and float formatting part
// ways: signed zeros, the edges of exact integers in a float64 (2^60
// is an integer whose shortest float form is not its exact digits), the
// switch to exponent notation at 1e21 and 1e-6, the extremes, the
// non-finite values, and a few ordinary distances.
var valueCorpus = []float64{
	0, math.Copysign(0, -1), 1e15 - 1, 1e15, 1e15 + 1,
	1<<53 - 1, 1 << 53, 1<<53 + 2, -(1<<53 - 1), -(1 << 53), 1 << 60,
	1e21, -1e21, 1e-6, 1e-7, -1e-7, 5e-324, math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(),
	255, 65279, 65280, 0.1, 123.456, -3,
}

func checkBody(t *testing.T, what, got, want string) {
	t.Helper()
	if got != want {
		t.Fatalf("%s:\n got %q\nwant %q", what, got, want)
	}
}

// TestAnswerWritersMatchEncodingJSON holds each append writer to the
// reference structs' json.Encoder output over the value corpus.
func TestAnswerWritersMatchEncodingJSON(t *testing.T) {
	answer := func(b []byte) string { return string(append(b, '\n')) }
	for _, v := range valueCorpus {
		checkBody(t, fmt.Sprintf("dist %v", v), answer(appendDistAnswer(nil, 3, 7, v)),
			refEncode(t, refDistResponse{From: 3, To: 7, Dist: refDist(v)}))
		checkBody(t, fmt.Sprintf("path %v", v), answer(appendPathAnswer(nil, 3, 7, v, []int{3, 5, 7})),
			refEncode(t, refPathResponse{From: 3, To: 7, Dist: refDist(v), Hops: []int{3, 5, 7}}))
	}
	checkBody(t, "row", answer(appendRowAnswer(nil, 2, valueCorpus)),
		refEncode(t, refRowResponse{From: 2, N: len(valueCorpus), Dist: refRow(valueCorpus)}))
	checkBody(t, "empty row", answer(appendRowAnswer(nil, 2, nil)),
		refEncode(t, refRowResponse{From: 2}))

	ts := make([]Target, len(valueCorpus))
	for i, v := range valueCorpus {
		ts[i] = Target{To: i, Dist: v}
	}
	checkBody(t, "knn", answer(appendKNNAnswer(nil, 4, len(ts), ts)),
		refEncode(t, refKNNResponse{From: 4, K: len(ts), Targets: refTargets(ts)}))
	checkBody(t, "knn without targets", answer(appendKNNAnswer(nil, 4, 10, nil)),
		refEncode(t, refKNNResponse{From: 4, K: 10, Targets: refTargets(nil)}))
	checkBody(t, "unreachable path", answer(appendPathAnswer(nil, 0, 3, math.Inf(1), nil)),
		refEncode(t, refPathResponse{From: 0, To: 3, Dist: refDist(math.Inf(1))}))
}

// corpusMatrix puts the value corpus in every row, rotated by the row
// index, so each row, pair and KNN ranking differs.
func corpusMatrix() *matrix.Block {
	n := len(valueCorpus)
	m := matrix.NewZero(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, valueCorpus[(i+j)%n])
		}
	}
	return m
}

// rowsCorruptAt is a source without row views whose row bad reads as a
// quarantined tile.
type rowsCorruptAt struct {
	Source
	bad int
}

func (s *rowsCorruptAt) RowInto(ctx context.Context, i int, dst []float64) ([]float64, error) {
	if i == s.bad {
		return nil, fmt.Errorf("tile 0: %w", store.ErrCorruptTile)
	}
	return s.Source.RowInto(ctx, i, dst)
}

func serveBody(t *testing.T, h http.Handler, method, target, body string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s %s: status %d: %s", method, target, rec.Code, rec.Body)
	}
	if cl := rec.Header().Get("Content-Length"); cl != fmt.Sprint(rec.Body.Len()) {
		t.Fatalf("%s %s: Content-Length %q for a %d-byte body", method, target, cl, rec.Body.Len())
	}
	return rec.Body.String()
}

// refBatch answers a batch request through the engine's query calls
// and the reference structs.
func refBatch(t *testing.T, e *Engine, req BatchRequest) string {
	t.Helper()
	ctx := context.Background()
	var resp refBatchResponse
	for _, q := range req.Dist {
		d, err := e.Dist(ctx, q.From, q.To)
		if err != nil {
			t.Fatal(err)
		}
		resp.Dist = append(resp.Dist, refDistResponse{From: q.From, To: q.To, Dist: refDist(d)})
	}
	for _, from := range req.Row {
		row, err := e.Row(ctx, from)
		if errors.Is(err, store.ErrCorruptTile) {
			resp.Row = append(resp.Row, refRowResponse{From: from, Error: "corrupt_tile"})
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		resp.Row = append(resp.Row, refRowResponse{From: from, N: len(row), Dist: refRow(row)})
	}
	for _, q := range req.KNN {
		k := q.K
		if k <= 0 {
			k = DefaultK
		}
		ts, err := e.KNN(ctx, q.From, k)
		if err != nil {
			t.Fatal(err)
		}
		resp.KNN = append(resp.KNN, refKNNResponse{From: q.From, K: k, Targets: refTargets(ts)})
	}
	for _, q := range req.Path {
		p, err := e.Path(ctx, q.From, q.To)
		if errors.Is(err, ErrNoPath) {
			resp.Path = append(resp.Path, refPathResponse{From: q.From, To: q.To, Dist: refDist(math.Inf(1))})
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		resp.Path = append(resp.Path, refPathResponse{From: q.From, To: q.To, Dist: refDist(p.Dist), Hops: p.Hops})
	}
	return refEncode(t, resp)
}

func postedBatch(t *testing.T, h http.Handler, req BatchRequest) string {
	t.Helper()
	body, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	return serveBody(t, h, http.MethodPost, "/batch", string(body))
}

// TestHandlerAnswersMatchEncodingJSON drives every endpoint and every
// /batch section through Handler and compares each body with the
// reference structs' encoding of the engine's own answers.
func TestHandlerAnswersMatchEncodingJSON(t *testing.T) {
	ctx := context.Background()
	n := len(valueCorpus)
	src, err := NewMatrixSource(corpusMatrix())
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := Handler(e)
	var mixed BatchRequest
	for i := 0; i < n; i++ {
		row, _ := e.Row(ctx, i)
		checkBody(t, fmt.Sprintf("/row %d", i), serveBody(t, h, http.MethodGet, fmt.Sprintf("/row?from=%d", i), ""),
			refEncode(t, refRowResponse{From: i, N: n, Dist: refRow(row)}))
		for j := 0; j < n; j++ {
			checkBody(t, fmt.Sprintf("/dist %d %d", i, j), serveBody(t, h, http.MethodGet, fmt.Sprintf("/dist?from=%d&to=%d", i, j), ""),
				refEncode(t, refDistResponse{From: i, To: j, Dist: refDist(row[j])}))
		}
		for _, k := range []int{1, 5, n + 5} {
			ts, _ := e.KNN(ctx, i, k)
			checkBody(t, fmt.Sprintf("/knn %d k=%d", i, k), serveBody(t, h, http.MethodGet, fmt.Sprintf("/knn?from=%d&k=%d", i, k), ""),
				refEncode(t, refKNNResponse{From: i, K: k, Targets: refTargets(ts)}))
		}
		mixed.Dist = append(mixed.Dist, PairQuery{From: i, To: (i * 7) % n})
		mixed.Row = append(mixed.Row, i)
		mixed.KNN = append(mixed.KNN, KNNQuery{From: i, K: i % 4})
	}
	checkBody(t, "mixed /batch", postedBatch(t, h, mixed), refBatch(t, e, mixed))
	for _, sec := range []BatchRequest{{Dist: mixed.Dist}, {Row: mixed.Row}, {KNN: mixed.KNN}, {Dist: mixed.Dist, KNN: mixed.KNN}} {
		checkBody(t, fmt.Sprintf("/batch %+v", sec), postedBatch(t, h, sec), refBatch(t, e, sec))
	}

	// Row 2 reads as a quarantined tile: its /batch item is the typed
	// per-item error, every other row answers.
	ce, err := New(&rowsCorruptAt{Source: src, bad: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := BatchRequest{Dist: mixed.Dist[:3], Row: []int{1, 2, 3}}
	checkBody(t, "/batch with a corrupt row", postedBatch(t, Handler(ce), corrupt), refBatch(t, ce, corrupt))
}

// TestHandlerPathAnswersMatchEncodingJSON covers /path, the /batch path
// section with an unreachable pair (null dist, null hops), and a mixed
// /batch whose body is over 1 MiB.
func TestHandlerPathAnswersMatchEncodingJSON(t *testing.T) {
	ctx := context.Background()
	g, dist := solvedGraph(t, 40, 6)
	e := newEngine(t, g, dist)
	h := Handler(e)
	reached := 0
	for i := 0; i < 40; i++ {
		from, to := i, (i*13)%40
		p, err := e.Path(ctx, from, to)
		if errors.Is(err, ErrNoPath) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		reached++
		checkBody(t, fmt.Sprintf("/path %d %d", from, to), serveBody(t, h, http.MethodGet, fmt.Sprintf("/path?from=%d&to=%d", from, to), ""),
			refEncode(t, refPathResponse{From: from, To: to, Dist: refDist(p.Dist), Hops: p.Hops}))
	}
	if reached < 20 {
		t.Fatalf("only %d of 40 test paths are reachable", reached)
	}

	var big BatchRequest
	for i := 0; i < 1500; i++ {
		big.Row = append(big.Row, i%40)
	}
	for i := 0; i < 40; i++ {
		big.Dist = append(big.Dist, PairQuery{From: i, To: 39 - i})
		big.KNN = append(big.KNN, KNNQuery{From: i, K: 3})
		big.Path = append(big.Path, PairQuery{From: i, To: (i * 13) % 40})
	}
	got := postedBatch(t, h, big)
	if len(got) <= 1<<20 {
		t.Fatalf("big /batch body is %d bytes, want over 1 MiB", len(got))
	}
	checkBody(t, "big /batch", got, refBatch(t, e, big))

	// Vertex 3 is isolated.
	ig, err := graphFromEdges(t, 4, [][3]float64{{0, 1, 1}, {1, 2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	ie := newEngine(t, ig, seq.Reference(ig))
	paths := BatchRequest{Path: []PairQuery{{0, 3}, {0, 2}, {3, 3}}}
	checkBody(t, "/batch with an unreachable path", postedBatch(t, Handler(ie), paths), refBatch(t, ie, paths))
}

// TestAnswerWritersZeroAlloc: into a warm buffer, the /dist, /row, /knn
// and /path writers allocate nothing.
func TestAnswerWritersZeroAlloc(t *testing.T) {
	b := make([]byte, 0, 1<<16)
	row := append([]float64(nil), valueCorpus...)
	ts := []Target{{1, 0.5}, {7, 3}, {2, 1e-7}, {9, 123.456}}
	hops := []int{0, 4, 9, 12, 31}
	for name, f := range map[string]func(){
		"dist": func() { b = appendDistAnswer(b[:0], 3, 7, 123.456) },
		"row":  func() { b = appendRowAnswer(b[:0], 3, row) },
		"knn":  func() { b = appendKNNAnswer(b[:0], 3, 10, ts) },
		"path": func() { b = appendPathAnswer(b[:0], 0, 31, 77.25, hops) },
	} {
		if allocs := testing.AllocsPerRun(200, f); allocs != 0 {
			t.Errorf("%s writer allocates %v per call, want 0", name, allocs)
		}
	}
}

const maxDistHandlerAllocs = 6

// stubWriter is a ResponseWriter reused across requests.
type stubWriter struct {
	h    http.Header
	code int
	body []byte
}

func (s *stubWriter) Header() http.Header  { return s.h }
func (s *stubWriter) WriteHeader(code int) { s.code = code }
func (s *stubWriter) Write(p []byte) (int, error) {
	s.body = append(s.body, p...)
	return len(p), nil
}

// TestDistHandlerAllocs pins the allocations of one /dist request
// through Handler: the query string parse, the two header values and
// the routing; the answer itself allocates nothing.
func TestDistHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	g, dist := solvedGraph(t, 64, 17)
	h := Handler(newEngine(t, g, dist))
	req := httptest.NewRequest(http.MethodGet, "/dist?from=3&to=41", nil)
	w := &stubWriter{h: http.Header{}, body: make([]byte, 0, 256)}
	allocs := testing.AllocsPerRun(500, func() {
		w.body = w.body[:0]
		h.ServeHTTP(w, req)
	})
	if w.code != http.StatusOK {
		t.Fatalf("/dist: status %d: %s", w.code, w.body)
	}
	t.Logf("/dist handler: %v allocs/op", allocs)
	if allocs > maxDistHandlerAllocs {
		t.Fatalf("/dist handler allocates %v per request, want at most %d", allocs, maxDistHandlerAllocs)
	}
}
