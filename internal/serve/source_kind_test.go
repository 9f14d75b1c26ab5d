package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"

	"apspark/internal/matrix"
	"apspark/internal/store"
)

// corruptSource fails every read with the store's corrupt-tile error,
// standing in for a store whose tiles are all quarantined.
type corruptSource struct{ n int }

func (s *corruptSource) N() int { return s.n }
func (s *corruptSource) Dist(context.Context, int, int) (float64, error) {
	return 0, fmt.Errorf("tile 0: %w", store.ErrCorruptTile)
}
func (s *corruptSource) RowInto(context.Context, int, []float64) ([]float64, error) {
	return nil, fmt.Errorf("tile 0: %w", store.ErrCorruptTile)
}
func (s *corruptSource) SourceKind() string { return "store" }

// kindedSource is a Source that labels itself, like the hierarchy
// oracle does.
type kindedSource struct{ Source }

func (s *kindedSource) SourceKind() string { return "oracle" }

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
	oracle := &kindedSource{src}
	asOracle, err := New(oracle, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := asOracle.SourceKind(); got != "oracle" {
		t.Fatalf("SourceKind() = %q, want oracle", got)
	}
	withFB, err := NewWithOptions(src, nil, EngineOptions{Fallback: oracle})
	if err != nil {
		t.Fatal(err)
	}
	if got := withFB.SourceKind(); got != "matrix+fallback" {
		t.Fatalf("SourceKind() = %q, want matrix+fallback", got)
	}
	// The kind surfaces in /healthz.
	rec := httptest.NewRecorder()
	Handler(withFB).ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	var h Health
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Source != "matrix+fallback" {
		t.Fatalf("healthz source = %q, want matrix+fallback", h.Source)
	}
}

func TestFallbackSourceAnswersCorruptReads(t *testing.T) {
	ctx := context.Background()
	fb, err := NewMatrixSource(testMatrix(5))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewWithOptions(&corruptSource{n: 5}, nil, EngineOptions{Fallback: fb})
	if err != nil {
		t.Fatal(err)
	}
	d, err := e.Dist(ctx, 0, 3)
	if err != nil {
		t.Fatalf("fallback did not answer: %v", err)
	}
	if d != 3 {
		t.Fatalf("dist = %v, want 3", d)
	}
	row, err := e.Row(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if row[4] != 2 {
		t.Fatalf("row[4] = %v, want 2", row[4])
	}
	if got := e.Recomputed(); got != 2 {
		t.Fatalf("Recomputed() = %d, want 2 (one per fallback answer)", got)
	}
}

func TestFallbackVertexCountMismatchRejected(t *testing.T) {
	src, err := NewMatrixSource(testMatrix(4))
	if err != nil {
		t.Fatal(err)
	}
	fb, err := NewMatrixSource(testMatrix(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewWithOptions(src, nil, EngineOptions{Fallback: fb}); err == nil {
		t.Fatal("mismatched fallback accepted")
	}
}
