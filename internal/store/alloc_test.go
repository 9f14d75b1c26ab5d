//go:build !race

package store

import (
	"context"
	"path/filepath"
	"testing"
)

// TestColdIVarintRowZeroAllocs: with row caching off, RowInto of a row
// whose tiles are verified assembles straight into the caller's buffer —
// pooled staging bytes, no decoded tile, no garbage. Excluded under
// -race, where sync.Pool intentionally drops items.
func TestColdIVarintRowZeroAllocs(t *testing.T) {
	n, bs := 128, 32
	m := intMatrix(n, 41)
	path := filepath.Join(t.TempDir(), "c.apsp")
	if err := WriteWithCodec(path, m, bs, codecs[CodecIVarint]); err != nil {
		t.Fatal(err)
	}
	s := openWithRows(t, path, 0, 0)
	if s.CodecTiles()["ivarint"] != 16 {
		t.Fatalf("codec census %v, want 16 ivarint tiles", s.CodecTiles())
	}
	ctx := context.Background()
	buf := make([]float64, 0, n)
	var err error
	for i := 0; i < n; i += bs { // first touches: verify and memoise every tile
		if buf, err = s.RowInto(ctx, i, buf); err != nil {
			t.Fatal(err)
		}
	}
	var i int
	allocs := testing.AllocsPerRun(200, func() {
		i += 7
		if buf, err = s.RowInto(ctx, i%n, buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("verified cold ivarint RowInto allocates %v per op, want 0", allocs)
	}
	if buf[5] != m.At(i%n, 5) {
		t.Fatalf("row %d col 5 = %v, want %v", i%n, buf[5], m.At(i%n, 5))
	}
}
