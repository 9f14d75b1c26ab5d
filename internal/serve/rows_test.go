package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"apspark/internal/graph"
	"apspark/internal/seq"
	"apspark/internal/store"
)

// TestRowsSourceServesLikeStore: on integer weights a graph-only engine
// answers every query endpoint with the bytes an engine over a store of
// the same graph does, and /healthz with the same value for every field
// both report, but the source kind. Its cache holds 3 rows, so Dist
// answers from cached rows and from target-stopped solves both.
func TestRowsSourceServesLikeStore(t *testing.T) {
	g, err := graph.ErdosRenyiWeighted(60, graph.AvgDegreeProb(60, 3), graph.IntegerWeights(20), 5)
	if err != nil {
		t.Fatal(err)
	}
	if g.Connected() {
		t.Fatal("test graph is connected; pick a seed that leaves unreachable pairs")
	}
	path := filepath.Join(t.TempDir(), "dist.apsp")
	if err := store.WriteWithCodec(path, seq.Reference(g), 16, store.CodecIVarint); err != nil {
		t.Fatal(err)
	}
	st, err := store.OpenWithOptions(path, store.Options{RowCacheBytes: 2 * 8 * int64(g.N)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	rsrc, err := NewRowsSource(g, 3*8*int64(g.N))
	if err != nil {
		t.Fatal(err)
	}
	handler := func(src Source) http.Handler {
		e, err := New(src, g)
		if err != nil {
			t.Fatal(err)
		}
		return Handler(e)
	}
	stored, rows := handler(st), handler(rsrc)
	body := func(h http.Handler, method, target, in string) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(in)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", method, target, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	same := func(method, target, in string) {
		t.Helper()
		if want, got := body(stored, method, target, in), body(rows, method, target, in); !bytes.Equal(got, want) {
			t.Fatalf("%s %s:\nrows  %s\nstore %s", method, target, got, want)
		}
	}
	for i := 0; i < g.N; i += 7 {
		same("GET", fmt.Sprintf("/row?from=%d", i), "")
		same("GET", fmt.Sprintf("/knn?from=%d&k=5", i), "")
		for j := 0; j < g.N; j += 5 {
			same("GET", fmt.Sprintf("/dist?from=%d&to=%d", i, j), "")
			same("GET", fmt.Sprintf("/path?from=%d&to=%d", i, j), "")
		}
	}
	same("POST", "/batch", `{"dist":[{"from":1,"to":58},{"from":59,"to":0},{"from":3,"to":3}],"row":[2,40],`+
		`"knn":[{"from":9,"k":4},{"from":33}],"path":[{"from":4,"to":50},{"from":0,"to":59}]}`)

	var want, got map[string]json.RawMessage
	if err := json.Unmarshal(body(stored, "GET", "/healthz", ""), &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body(rows, "GET", "/healthz", ""), &got); err != nil {
		t.Fatal(err)
	}
	if s := string(got["source"]); s != `"rows"` {
		t.Fatalf("healthz source = %s, want \"rows\"", s)
	}
	delete(got, "source")
	for k, v := range got {
		if !bytes.Equal(v, want[k]) {
			t.Fatalf("healthz %s = %s, a store-backed engine says %s", k, v, want[k])
		}
	}
}
