package serve

import (
	"encoding/json"
	"net/http/httptest"
	"testing"

	"apspark/internal/graph"
	"apspark/internal/matrix"
)

func testMatrix(n int) *matrix.Block {
	m := matrix.NewZero(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d := float64(i - j)
			if d < 0 {
				d = -d
			}
			m.Set(i, j, d)
		}
	}
	return m
}

func TestSourceKindReporting(t *testing.T) {
	src, err := NewMatrixSource(testMatrix(4))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := New(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := plain.SourceKind(); got != "matrix" {
		t.Fatalf("SourceKind() = %q, want matrix", got)
	}
	g, err := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	rsrc, err := NewRowsSource(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := New(rsrc, g)
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.SourceKind(); got != "rows" {
		t.Fatalf("SourceKind() = %q, want rows", got)
	}
	if rows.sp != rsrc.(*rowsSource).sp {
		t.Fatal("the engine built a second sparse engine beside its rows source's")
	}
	// The kind surfaces in /healthz.
	rec := httptest.NewRecorder()
	Handler(rows).ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	var h Health
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Source != "rows" {
		t.Fatalf("healthz source = %q, want rows", h.Source)
	}
}
