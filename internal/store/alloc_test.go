//go:build !race

package store

import (
	"context"
	"path/filepath"
	"testing"

	"apspark/internal/matrix"
)

// TestWarmIntPanelAllocatesNothing: once a first panel has grown the
// writer's buffer, WriteCells encodes every tile where it lies with no
// garbage — every codec, integer panels (their rows, and the lower tiles
// of a seeded panel) and float panels alike.
func TestWarmIntPanelAllocatesNothing(t *testing.T) {
	const n, b = 256, 32
	cells, reals := make([]uint32, b*n), make([]float64, b*n)
	for i := range cells {
		cells[i] = uint32(i % 997)
		reals[i] = float64(cells[i])
	}
	cells[5], reals[5] = matrix.NoPath32, matrix.Inf
	lower := make([]uint32, n*b) // panels 1..6 take base·b of them
	for _, name := range []string{"ivarint", "raw", "f32"} {
		for _, ints := range []bool{true, false} {
			c, err := CodecByName(name)
			if err != nil {
				t.Fatal(err)
			}
			w, err := NewPanelWriterWithOptions(filepath.Join(t.TempDir(), "d.apsp"), n, b, PanelWriterOptions{Codec: c})
			if err != nil {
				t.Fatal(err)
			}
			first := matrix.Panel{Reals: reals}
			if ints {
				first = matrix.Panel{Ints: cells}
			}
			if err := w.WriteCells(first); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(5, func() { // 6 more of the 8 panels
				p := matrix.Panel{Reals: reals}
				if ints {
					base := w.NextPanel() * b
					p = matrix.Panel{Ints: cells[:b*(n-base)], From: base, Lower: lower[:base*b], Lanes: 32}
				}
				if err := w.WriteCells(p); err != nil {
					t.Fatal(err)
				}
			})
			w.Abort()
			if allocs != 0 {
				t.Fatalf("%s, integer cells %v: a warm WriteCells allocates %v objects, want 0", name, ints, allocs)
			}
		}
	}
}

// TestWarmReadBackAllocatesNothing: reading an integer tile back — pooled
// staging bytes, the decode straight into the caller's cells — allocates
// nothing once the pool holds a buffer, ivarint or raw.
func TestWarmReadBackAllocatesNothing(t *testing.T) {
	const n, b = 256, 32
	cells := make([]uint32, b*n)
	for i := range cells {
		cells[i] = uint32(i % 997)
	}
	cells[5] = matrix.NoPath32
	for _, name := range []string{"ivarint", "raw"} {
		c, err := CodecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewPanelWriterWithOptions(filepath.Join(t.TempDir(), "d.apsp"), n, b, PanelWriterOptions{Codec: c})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteCells(matrix.Panel{Ints: cells}); err != nil {
			t.Fatal(err)
		}
		read, dst := w.ReadBack(), make([]uint32, b*b)
		if err := read(0, 1, b, dst); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := read(0, 1, b, dst); err != nil {
				t.Fatal(err)
			}
			if err := read(0, 1, 16, dst); err != nil {
				t.Fatal(err)
			}
		})
		w.Abort()
		if got := dst[matrix.LaneIndex(1, 5, b, b, 16)]; allocs != 0 || got != cells[n+b+5] {
			t.Fatalf("%s: a warm read-back allocates %v objects (cell %d, want %d), want 0", name, allocs, got, cells[n+b+5])
		}
	}
}

// TestColdIVarintRowZeroAllocs: with row caching off, RowInto of a row
// whose tiles are verified assembles straight into the caller's buffer —
// pooled staging bytes, no decoded tile, no garbage. Excluded under
// -race, where sync.Pool intentionally drops items.
func TestColdIVarintRowZeroAllocs(t *testing.T) {
	n, bs := 128, 32
	m := intMatrix(n, 41)
	path := filepath.Join(t.TempDir(), "c.apsp")
	if err := WriteWithCodec(path, m, bs, CodecIVarint); err != nil {
		t.Fatal(err)
	}
	s := openWithRows(t, path, 0, 0)
	if s.Snapshot().CodecTiles["ivarint"] != 16 {
		t.Fatalf("codec census %v, want 16 ivarint tiles", s.Snapshot().CodecTiles)
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
