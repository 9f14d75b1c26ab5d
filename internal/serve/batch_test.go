package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"apspark/internal/graph"
	"apspark/internal/seq"
)

func graphFromEdges(t *testing.T, n int, edges [][3]float64) (*graph.Graph, error) {
	t.Helper()
	es := make([]graph.Edge, len(edges))
	for i, e := range edges {
		es[i] = graph.Edge{U: int(e[0]), V: int(e[1]), W: e[2]}
	}
	return graph.FromEdges(n, es)
}

func newTestServer(t *testing.T, e *Engine) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(Handler(e))
	t.Cleanup(srv.Close)
	return srv
}

func postBatch(t *testing.T, url string, body string, wantCode int) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantCode {
		resp.Body.Close()
		t.Fatalf("POST /batch %s: status %d, want %d", body, resp.StatusCode, wantCode)
	}
	return resp
}

// TestEngineBatchAPIs: the Go-level batch calls agree exactly with their
// single-query counterparts.
func TestEngineBatchAPIs(t *testing.T) {
	g, dist := solvedGraph(t, 50, 9)
	e := newEngine(t, g, dist)
	ctx := context.Background()

	pairs := []PairQuery{{0, 1}, {3, 3}, {7, 49}, {12, 0}}
	ds, err := e.DistBatch(ctx, pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pairs {
		want, _ := e.Dist(ctx, p.From, p.To)
		if math.Float64bits(ds[i]) != math.Float64bits(want) {
			t.Fatalf("DistBatch[%d] = %v, want %v", i, ds[i], want)
		}
	}

	kts, err := e.KNNBatch(ctx, []KNNQuery{{From: 0, K: 5}, {From: 7, K: 0}})
	if err != nil {
		t.Fatal(err)
	}
	want5, _ := e.KNN(ctx, 0, 5)
	if fmt.Sprint(kts[0]) != fmt.Sprint(want5) {
		t.Fatalf("KNNBatch[0] = %v, want %v", kts[0], want5)
	}
	wantDefault, _ := e.KNN(ctx, 7, DefaultK)
	if fmt.Sprint(kts[1]) != fmt.Sprint(wantDefault) {
		t.Fatalf("KNNBatch default-k = %v, want %v", kts[1], wantDefault)
	}

	// Malformed input fails the whole batch with the offending index.
	if _, err := e.DistBatch(ctx, []PairQuery{{0, 1}, {0, 99}}); err == nil || !strings.Contains(err.Error(), "dist[1]") {
		t.Fatalf("DistBatch out-of-range: err = %v", err)
	}
}

// TestHTTPBatch round-trips a mixed batch over the full store-backed
// stack and checks every section against the single-query endpoints'
// source of truth.
func TestHTTPBatch(t *testing.T) {
	srv, g, _ := newStoreServer(t, 40, 6)
	dist := seq.Reference(g)

	req := BatchRequest{
		Dist: []PairQuery{{From: 0, To: 5}, {From: 3, To: 3}, {From: 7, To: 39}},
		Row:  []int{0, 17},
		KNN:  []KNNQuery{{From: 7, K: 5}, {From: 2}},
		Path: []PairQuery{{From: 0, To: 39}},
	}
	body, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	resp := postBatch(t, srv.URL, string(body), http.StatusOK)
	defer resp.Body.Close()
	var got struct {
		Dist []struct {
			From int      `json:"from"`
			To   int      `json:"to"`
			Dist *float64 `json:"dist"`
		} `json:"dist"`
		Row []struct {
			From int        `json:"from"`
			N    int        `json:"n"`
			Dist []*float64 `json:"dist"`
		} `json:"row"`
		KNN []struct {
			From    int `json:"from"`
			K       int `json:"k"`
			Targets []struct {
				To   int      `json:"to"`
				Dist *float64 `json:"dist"`
			} `json:"targets"`
		} `json:"knn"`
		Path []struct {
			From int      `json:"from"`
			To   int      `json:"to"`
			Dist *float64 `json:"dist"`
			Hops []int    `json:"hops"`
		} `json:"path"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}

	if len(got.Dist) != 3 {
		t.Fatalf("dist section has %d entries", len(got.Dist))
	}
	for i, q := range req.Dist {
		want := dist.At(q.From, q.To)
		d := got.Dist[i]
		if d.From != q.From || d.To != q.To {
			t.Fatalf("dist[%d] echoes (%d,%d), want (%d,%d)", i, d.From, d.To, q.From, q.To)
		}
		if math.IsInf(want, 1) != (d.Dist == nil) || (d.Dist != nil && *d.Dist != want) {
			t.Fatalf("dist[%d] = %v, want %v", i, d.Dist, want)
		}
	}
	if len(got.Row) != 2 {
		t.Fatalf("row section has %d entries", len(got.Row))
	}
	for i, from := range req.Row {
		r := got.Row[i]
		if r.From != from || r.N != 40 || len(r.Dist) != 40 {
			t.Fatalf("row[%d] header wrong: %+v", i, r)
		}
		for j, d := range r.Dist {
			want := dist.At(from, j)
			if math.IsInf(want, 1) != (d == nil) || (d != nil && *d != want) {
				t.Fatalf("row[%d][%d] mismatch", i, j)
			}
		}
	}
	if len(got.KNN) != 2 {
		t.Fatalf("knn section has %d entries", len(got.KNN))
	}
	if got.KNN[0].K != 5 || len(got.KNN[0].Targets) != 5 {
		t.Fatalf("knn[0] = %+v", got.KNN[0])
	}
	if got.KNN[1].K != DefaultK {
		t.Fatalf("knn[1] default k = %d, want %d", got.KNN[1].K, DefaultK)
	}
	if len(got.Path) != 1 || got.Path[0].Dist == nil {
		t.Fatalf("path section = %+v", got.Path)
	}
	verifyPath(t, g, Path{Dist: *got.Path[0].Dist, Hops: got.Path[0].Hops}, 0, 39, dist.At(0, 39))
}

// TestHTTPBatchUnreachablePath: a disconnected pair inside a batch is a
// null-dist entry, not a request-level failure.
func TestHTTPBatchUnreachablePath(t *testing.T) {
	// Vertex 3 is isolated in this hand-built graph.
	g, err := graphFromEdges(t, 4, [][3]float64{{0, 1, 1}, {1, 2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, g, seq.Reference(g))
	srv := newTestServer(t, e)
	body := `{"path":[{"from":0,"to":3},{"from":0,"to":2}]}`
	resp := postBatch(t, srv.URL, body, http.StatusOK)
	defer resp.Body.Close()
	var got struct {
		Path []struct {
			Dist *float64 `json:"dist"`
			Hops []int    `json:"hops"`
		} `json:"path"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got.Path) != 2 {
		t.Fatalf("path section has %d entries", len(got.Path))
	}
	if got.Path[0].Dist != nil || got.Path[0].Hops != nil {
		t.Fatalf("unreachable path entry = %+v, want nulls", got.Path[0])
	}
	if got.Path[1].Dist == nil || len(got.Path[1].Hops) != 3 {
		t.Fatalf("reachable path entry = %+v", got.Path[1])
	}
}

func TestHTTPBatchErrors(t *testing.T) {
	srv, _, _ := newStoreServer(t, 20, 2)
	for _, tc := range []struct {
		body string
		code int
	}{
		{``, http.StatusBadRequest},             // no body
		{`{`, http.StatusBadRequest},            // truncated JSON
		{`{}`, http.StatusBadRequest},           // empty batch
		{`{"nope":[1]}`, http.StatusBadRequest}, // unknown field
		{`{"row":[99]}`, http.StatusBadRequest}, // out of range
		{`{"dist":[{"from":0,"to":-1}]}`, http.StatusBadRequest},
		{`{"knn":[{"from":20,"k":3}]}`, http.StatusBadRequest},
		{bigBatchBody(MaxBatchItems + 1), http.StatusBadRequest}, // over the item cap
	} {
		resp := postBatch(t, srv.URL, tc.body, tc.code)
		resp.Body.Close()
	}
	// GET on /batch is not routed.
	resp, err := http.Get(srv.URL + "/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /batch: status %d, want %d", resp.StatusCode, http.StatusMethodNotAllowed)
	}
}

// TestHTTPBatchPathWithoutGraph: batches requesting paths against an
// engine without a graph get 501, like the single endpoint.
func TestHTTPBatchPathWithoutGraph(t *testing.T) {
	_, dist := solvedGraph(t, 16, 3)
	src, err := NewMatrixSource(dist)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, e)
	resp := postBatch(t, srv.URL, `{"path":[{"from":0,"to":1}]}`, http.StatusNotImplemented)
	resp.Body.Close()
}

func bigBatchBody(n int) string {
	var b bytes.Buffer
	b.WriteString(`{"row":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('0')
	}
	b.WriteString(`]}`)
	return b.String()
}

// TestJSONRowNonFinite: +Inf, -Inf and NaN all serialize as null — the
// writer must never emit a token JSON parsers reject, even for
// distances a hand-edited edge list smuggled in.
func TestJSONRowNonFinite(t *testing.T) {
	buf := appendRowAnswer(nil, 3, []float64{1.5, math.Inf(1), math.Inf(-1), math.NaN(), 0})
	if string(buf) != `{"from":3,"n":5,"dist":[1.5,null,null,null,0]}` {
		t.Fatalf("row answer = %s", buf)
	}
	var back map[string]any
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatalf("row answer is not valid JSON: %v", err)
	}
	for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		if buf := appendDist(nil, v); string(buf) != "null" {
			t.Fatalf("appendDist(%v) = %s, want null", v, buf)
		}
	}
}
