package store

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"apspark/internal/matrix"
)

// randomDist builds a dense matrix with a mix of finite values and Inf,
// shaped like a distance matrix (zero diagonal).
func randomDist(n int, seed int64) *matrix.Block {
	rng := rand.New(rand.NewSource(seed))
	m := matrix.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			switch {
			case i == j:
				m.Set(i, j, 0)
			case rng.Float64() < 0.15:
				// leave +Inf
			default:
				m.Set(i, j, 1+rng.Float64()*99)
			}
		}
	}
	return m
}

// writePanels streams m through a PanelWriter in row panels of height b.
func writePanels(t *testing.T, path string, m *matrix.Block, b int) {
	t.Helper()
	pw, err := NewPanelWriterWithOptions(path, m.R, b, PanelWriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer pw.Abort()
	eb := pw.BlockSize()
	panel := matrix.New(eb, m.R)
	for bi := 0; bi < pw.Panels(); bi++ {
		h := tileEdge(m.R, eb, bi)
		panel.R, panel.Data = h, panel.Data[:h*m.R]
		if err := m.ExtractInto(panel, bi*eb, 0); err != nil {
			t.Fatal(err)
		}
		if err := pw.WritePanel(panel); err != nil {
			t.Fatal(err)
		}
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPanelWriterByteIdenticalToWrite pins the streaming writer's core
// contract: for the same matrix and block size the emitted file is
// byte-for-byte the file Write produces — same header, index, tile
// payloads, everything.
func TestPanelWriterByteIdenticalToWrite(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct{ n, b int }{
		{100, 32}, // ragged last tile both ways
		{64, 16},  // exact multiple
		{50, 50},  // single tile
		{7, 100},  // blockSize clamped to n
		{9, 1},    // one row per panel
		{1, 1},    // single vertex
	} {
		m := randomDist(tc.n, int64(tc.n*100+tc.b))
		ref := filepath.Join(dir, "ref.apsp")
		stream := filepath.Join(dir, "stream.apsp")
		if err := WriteWithCodec(ref, m, tc.b, nil); err != nil {
			t.Fatal(err)
		}
		writePanels(t, stream, m, tc.b)
		want, err := os.ReadFile(ref)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(stream)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d b=%d: streamed store differs from Write output (%d vs %d bytes)",
				tc.n, tc.b, len(got), len(want))
		}
	}
}

// TestWriteIntPanelMatchesWritePanel: an integer panel is written as the
// bytes of the same distances as float64 — every codec, ragged and
// clamped geometry, no-path cells, deltas past a one-byte token, and the
// 1x1 tiles ivarint declines.
func TestWriteIntPanelMatchesWritePanel(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(8))
	for _, tc := range []struct{ n, b int }{{100, 32}, {64, 16}, {7, 100}, {9, 1}, {1, 1}, {40, 16}} {
		cells := make([]uint32, tc.n*tc.n)
		m := matrix.New(tc.n, tc.n)
		for i := range cells {
			switch rng.Intn(10) {
			case 0:
				cells[i] = matrix.NoPath32
			case 1:
				cells[i] = rng.Uint32() % matrix.NoPath32
			default:
				cells[i] = uint32(rng.Intn(200))
			}
			m.Data[i] = matrix.Recast[float64](cells[i])
		}
		for _, name := range []string{"raw", "ivarint", "f32"} {
			c, err := CodecByName(name)
			if err != nil {
				t.Fatal(err)
			}
			want, got := filepath.Join(dir, "float.apsp"), filepath.Join(dir, "int.apsp")
			if err := WriteWithCodec(want, m, tc.b, c); err != nil {
				t.Fatal(err)
			}
			w, err := NewPanelWriterWithOptions(got, tc.n, tc.b, PanelWriterOptions{Codec: c})
			if err != nil {
				t.Fatal(err)
			}
			for bi := 0; bi < w.Panels(); bi++ {
				base, h := panelRows(tc.n, w.BlockSize(), bi)
				if err := w.WriteIntPanel(cells[base*tc.n : (base+h)*tc.n]); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			a, err := os.ReadFile(got)
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(want)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("n=%d b=%d %s: integer panels wrote %d bytes, float panels %d, not the same", tc.n, tc.b, name, len(a), len(b))
			}
		}
	}
}

// TestReadBackReturnsTheIntegersWritten: an exact writer's read-back
// returns every tile of the panels written so far as the integers written
// — raw, ivarint, the 1x1 tile ivarint declines (written raw), ragged
// edges, no-path cells and values past a one-byte token — and an f32
// writer has no read-back. A tile whose bytes change on disk after it was
// written fails with ErrCorruptTile.
func TestReadBackReturnsTheIntegersWritten(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, tc := range []struct{ n, b int }{{40, 16}, {33, 16}, {9, 1}} {
		n := tc.n
		cells := make([]uint32, n*n)
		for i := range cells {
			switch rng.Intn(10) {
			case 0:
				cells[i] = matrix.NoPath32
			case 1:
				cells[i] = rng.Uint32() % matrix.NoPath32
			default:
				cells[i] = uint32(rng.Intn(200))
			}
		}
		for _, name := range []string{"raw", "ivarint", "f32"} {
			c, err := CodecByName(name)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "d.apsp")
			w, err := NewPanelWriterWithOptions(path, n, tc.b, PanelWriterOptions{Codec: c, Checkpoint: true})
			if err != nil {
				t.Fatal(err)
			}
			read := w.ReadBack()
			if (read == nil) != (name == "f32") {
				t.Fatalf("%s writer: has a read-back: %v", name, read != nil)
			}
			q := w.Panels()
			for bi := 0; bi < q; bi++ {
				base, h := panelRows(n, tc.b, bi)
				if err := w.WriteIntPanel(cells[base*n : (base+h)*n]); err != nil {
					t.Fatal(err)
				}
				for pi := 0; read != nil && pi <= bi; pi++ {
					r0, h := panelRows(n, tc.b, pi)
					for bj := 0; bj < q; bj++ {
						c0, cw := panelRows(n, tc.b, bj)
						got := make([]uint32, h*cw)
						if err := read(pi, bj, got); err != nil {
							t.Fatalf("n=%d b=%d %s: tile (%d,%d) after panel %d: %v", n, tc.b, name, pi, bj, bi, err)
						}
						for r := 0; r < h; r++ {
							if want := cells[(r0+r)*n+c0:][:cw]; !slices.Equal(got[r*cw:][:cw], want) {
								t.Fatalf("n=%d b=%d %s: tile (%d,%d) row %d reads back %v, want %v", n, tc.b, name, pi, bj, r, got[r*cw:][:cw], want)
							}
						}
					}
				}
			}
			if name == "ivarint" && n == 33 && w.index[q*q-1].codec != CodecRaw {
				t.Fatalf("the 1x1 tile went out as codec %d, want raw", w.index[q*q-1].codec)
			}
			if read != nil {
				// Flip a byte of tile (0,1) in the partial file.
				ref := w.index[1]
				f, err := os.OpenFile(path+".partial", os.O_RDWR, 0)
				if err != nil {
					t.Fatal(err)
				}
				one := make([]byte, 1)
				off := ref.off + ref.length/2
				if _, err := f.ReadAt(one, off); err != nil {
					t.Fatal(err)
				}
				one[0] ^= 0x40
				if _, err := f.WriteAt(one, off); err != nil {
					t.Fatal(err)
				}
				f.Close()
				_, cw := panelRows(n, tc.b, 1)
				_, h := panelRows(n, tc.b, 0)
				if err := read(0, 1, make([]uint32, h*cw)); !errors.Is(err, ErrCorruptTile) {
					t.Fatalf("n=%d b=%d %s: a flipped byte reads back as %v, want ErrCorruptTile", n, tc.b, name, err)
				}
			}
			w.Abort()
		}
	}
}

// TestDecodeIntTileRefusesWhatIsNoUint32: an integer read-back refuses a
// raw value that is no uint32 distance, an ivarint value past uint32 and
// the lossy f32 codec, each as ErrCodecData.
func TestDecodeIntTileRefusesWhatIsNoUint32(t *testing.T) {
	tile := func(v float64) *matrix.Block {
		blk := matrix.New(2, 2)
		blk.Data = []float64{0, 3, 3, v}
		return blk
	}
	for _, tc := range []struct {
		name string
		c    byte
		v    float64
	}{
		{"raw fraction", CodecRaw, 1.5},
		{"raw negative", CodecRaw, -1},
		{"raw past uint32", CodecRaw, 1 << 32},
		{"ivarint past uint32", CodecIVarint, 1 << 33},
		{"f32", CodecF32, 7},
	} {
		data, ok := codecs[tc.c].EncodeTile(nil, tile(tc.v))
		if !ok {
			t.Fatalf("%s: codec declined the tile", tc.name)
		}
		if err := decodeIntTile(tc.c, data, 2, 2, make([]uint32, 4)); !errors.Is(err, ErrCodecData) {
			t.Fatalf("%s: err = %v, want ErrCodecData", tc.name, err)
		}
	}
}

func TestPanelWriterServesQueries(t *testing.T) {
	m := randomDist(75, 9)
	path := filepath.Join(t.TempDir(), "dist.apsp")
	writePanels(t, path, m, 20)
	s, err := OpenWithOptions(path, Options{TileCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	for i := 0; i < m.R; i += 7 {
		row, err := s.Row(ctx, i)
		if err != nil {
			t.Fatal(err)
		}
		for j := range row {
			if row[j] != m.At(i, j) {
				t.Fatalf("row %d col %d = %v, want %v", i, j, row[j], m.At(i, j))
			}
		}
	}
}

func TestPanelWriterRejectsBadPanels(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dist.apsp")
	pw, err := NewPanelWriterWithOptions(path, 50, 20, PanelWriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer pw.Abort()
	if err := pw.WritePanel(matrix.New(21, 50)); err == nil {
		t.Fatal("wrong panel height accepted")
	}
	if err := pw.WritePanel(matrix.New(20, 49)); err == nil {
		t.Fatal("wrong panel width accepted")
	}
	if err := pw.WritePanel(matrix.NewPhantom(20, 50)); err == nil {
		t.Fatal("phantom panel accepted")
	}
	if err := pw.WriteIntPanel(make([]uint32, 21*50)); err == nil {
		t.Fatal("integer panel of the wrong size accepted")
	}
	if err := pw.WritePanel(matrix.New(20, 50)); err != nil {
		t.Fatal(err)
	}
}

func TestPanelWriterIncompleteCloseFails(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dist.apsp")
	pw, err := NewPanelWriterWithOptions(path, 50, 20, PanelWriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := pw.WritePanel(matrix.New(20, 50)); err != nil {
		t.Fatal(err)
	}
	if err := pw.Close(); err == nil {
		t.Fatal("Close with 1 of 3 panels succeeded")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("incomplete store visible at %s", path)
	}
	assertNoTempFiles(t, dir)
}

func TestPanelWriterAbortCleansUp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dist.apsp")
	pw, err := NewPanelWriterWithOptions(path, 50, 20, PanelWriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pw.Abort()
	pw.Abort() // idempotent
	if err := pw.WritePanel(matrix.New(20, 50)); err == nil {
		t.Fatal("WritePanel after Abort succeeded")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("aborted store visible at %s", path)
	}
	assertNoTempFiles(t, dir)
}

func TestPanelWriterTooManyPanels(t *testing.T) {
	dir := t.TempDir()
	pw, err := NewPanelWriterWithOptions(filepath.Join(dir, "dist.apsp"), 20, 20, PanelWriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer pw.Abort()
	if err := pw.WritePanel(matrix.New(20, 20)); err != nil {
		t.Fatal(err)
	}
	if err := pw.WritePanel(matrix.New(20, 20)); err == nil {
		t.Fatal("extra panel accepted")
	}
}

func TestPanelWriterRejectsBadShape(t *testing.T) {
	dir := t.TempDir()
	if _, err := NewPanelWriterWithOptions(filepath.Join(dir, "x"), 0, 16, PanelWriterOptions{}); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := NewPanelWriterWithOptions(filepath.Join(dir, "x"), 16, 0, PanelWriterOptions{}); err == nil {
		t.Fatal("blockSize=0 accepted")
	}
}

func assertNoTempFiles(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if len(e.Name()) > 0 && e.Name()[0] == '.' {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}
