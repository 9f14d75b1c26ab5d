package store

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// openWithRows opens path with both caches enabled.
func openWithRows(t *testing.T, path string, tileBytes, rowBytes int64) *Store {
	t.Helper()
	s, err := OpenWithOptions(path, Options{TileCacheBytes: tileBytes, RowCacheBytes: rowBytes})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestRowCacheServesAndEvicts: hits are counted, repeated reads share the
// cached slice, the byte budget evicts LRU rows, and every served value
// matches the source matrix — including via Dist, which routes through
// the row cache when it is enabled.
func TestRowCacheServesAndEvicts(t *testing.T) {
	n, bs := 33, 8 // ragged last tile column
	m := testMatrix(n, 21)
	rowBytes := int64(8 * n)
	s := openWithRows(t, writeTestStore(t, m, bs), 0, 2*rowBytes) // room for 2 rows, no tile cache
	ctx := context.Background()

	check := func(i int, row []float64) {
		t.Helper()
		for j := 0; j < n; j++ {
			want := m.At(i, j)
			if row[j] != want && !(math.IsInf(row[j], 1) && math.IsInf(want, 1)) {
				t.Fatalf("row %d col %d = %v, want %v", i, j, row[j], want)
			}
		}
	}

	v1, err := s.RowView(ctx, 5)
	if err != nil {
		t.Fatal(err)
	}
	check(5, v1)
	v2, err := s.RowView(ctx, 5)
	if err != nil {
		t.Fatal(err)
	}
	if &v1[0] != &v2[0] {
		t.Fatal("row-cache hit returned a different slice")
	}
	if st := s.Snapshot().Rows; st.Hits != 1 || st.Misses != 1 || st.Items != 1 {
		t.Fatalf("stats after hit: %+v", st)
	}

	// Dist routes through the row cache: same row -> hit, no tile traffic.
	d, err := s.Dist(ctx, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if want := m.At(5, 7); d != want && !(math.IsInf(d, 1) && math.IsInf(want, 1)) {
		t.Fatalf("Dist(5,7) = %v, want %v", d, want)
	}
	if st := s.Snapshot().Rows; st.Hits != 2 {
		t.Fatalf("Dist did not hit the row cache: %+v", st)
	}
	if st := s.Snapshot().Tiles; st.Hits != 0 && st.Misses != 0 {
		t.Fatalf("tile cache touched with row cache enabled: %+v", st)
	}

	// Fill past the budget: rows 6 then 7 arrive, so the LRU row 5 must
	// go while the recently-touched 7 and 6 survive.
	if _, err := s.RowView(ctx, 6); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RowView(ctx, 7); err != nil {
		t.Fatal(err)
	}
	st := s.Snapshot().Rows
	if st.Evictions != 1 || st.Items != 2 || st.BytesInUse != 2*rowBytes {
		t.Fatalf("stats after evictions: %+v", st)
	}
	if st.BytesInUse > st.BytesBudget {
		t.Fatalf("row cache over budget: %+v", st)
	}
	before := s.Snapshot().Rows.Hits
	if _, err := s.RowView(ctx, 7); err != nil {
		t.Fatal(err)
	}
	if s.Snapshot().Rows.Hits != before+1 {
		t.Fatal("recently used row was evicted")
	}
	before = s.Snapshot().Rows.Misses
	if _, err := s.RowView(ctx, 5); err != nil {
		t.Fatal(err)
	}
	if s.Snapshot().Rows.Misses != before+1 {
		t.Fatal("LRU row survived eviction")
	}
}

// TestRowDoesNotAliasCache: Row hands out caller-owned copies even when
// the row cache serves them.
func TestRowDoesNotAliasCache(t *testing.T) {
	m := testMatrix(16, 5)
	s := openWithRows(t, writeTestStore(t, m, 4), 1<<20, 1<<20)
	r1, err := s.Row(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	r1[2] = -42
	r2, err := s.Row(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if r2[2] == -42 {
		t.Fatal("Row aliases the cached row")
	}
}

// TestOversizeRowServedUncached: a row budget too small for even one row
// still serves correct (freshly assembled) rows without caching any.
func TestOversizeRowServedUncached(t *testing.T) {
	n := 16
	m := testMatrix(n, 6)
	s := openWithRows(t, writeTestStore(t, m, 4), 0, int64(8*n-1))
	if _, err := s.RowView(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if st := s.Snapshot().Rows; st.Items != 0 || st.BytesInUse != 0 {
		t.Fatalf("oversize row was cached: %+v", st)
	}
}

// TestRowSpanReadsBypassTiles: with both caches off every row assembly
// is pure span reads — q per row — and answers stay exact, ragged edge
// included.
func TestRowSpanReadsBypassTiles(t *testing.T) {
	n, bs := 29, 8 // ragged: q=4, last tile 5 wide
	m := testMatrix(n, 8)
	s := openWithRows(t, writeTestStore(t, m, bs), 0, 0)
	ctx := context.Background()
	for i := 0; i < n; i++ {
		row, err := s.Row(ctx, i)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < n; j++ {
			want := m.At(i, j)
			if row[j] != want && !(math.IsInf(row[j], 1) && math.IsInf(want, 1)) {
				t.Fatalf("span row %d col %d = %v, want %v", i, j, row[j], want)
			}
		}
	}
	if got, want := s.spanReads.Load(), int64(n*4); got != want {
		t.Fatalf("span reads = %d, want %d (q per row)", got, want)
	}
	if st := s.Snapshot().Tiles; st.Misses != 0 {
		t.Fatalf("span path decoded tiles: %+v", st)
	}
}

// TestRowSpanUsesResidentTiles: tiles already decoded for point queries
// are reused by row assembly (a copy from RAM instead of a pread).
func TestRowSpanUsesResidentTiles(t *testing.T) {
	n, bs := 32, 8
	m := testMatrix(n, 9)
	s := openWithRows(t, writeTestStore(t, m, bs), 1<<20, 0)
	ctx := context.Background()
	// Warm the full tile row band of matrix row 3 via Tile.
	for bj := 0; bj < s.q; bj++ {
		if _, err := s.Tile(ctx, 0, bj); err != nil {
			t.Fatal(err)
		}
	}
	row, err := s.Row(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < n; j++ {
		want := m.At(3, j)
		if row[j] != want && !(math.IsInf(row[j], 1) && math.IsInf(want, 1)) {
			t.Fatalf("row[%d] = %v, want %v", j, row[j], want)
		}
	}
	if got := s.spanReads.Load(); got != 0 {
		t.Fatalf("span reads = %d, want 0 (all tiles resident)", got)
	}
	if hits := s.Snapshot().Tiles.Hits; hits != int64(s.q) {
		t.Fatalf("tile hits = %d, want %d", hits, s.q)
	}
}

// TestSpanReadRejectsCorruptHeader: the lazy per-tile header validation
// of the span path refuses a smashed tile header instead of decoding
// garbage floats.
func TestSpanReadRejectsCorruptHeader(t *testing.T) {
	m := testMatrix(12, 4)
	path := writeTestStore(t, m, 4)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tileOff := 24 + 9*24 // header + 3x3 index
	buf[tileOff] = 0x42  // tile (0,0) magic byte
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	s := openWithRows(t, path, 0, 1<<20)
	if _, err := s.RowView(context.Background(), 0); err == nil {
		t.Fatal("span read accepted a corrupt tile header")
	}
	// Rows outside the damaged band still serve.
	if _, err := s.RowView(context.Background(), 5); err != nil {
		t.Fatalf("undamaged band unreadable: %v", err)
	}
}

// TestRowIntoSteadyStateZeroAllocs: a row-cache hit copied into a reused
// buffer allocates nothing — the serving-path acceptance criterion.
func TestRowIntoSteadyStateZeroAllocs(t *testing.T) {
	n := 64
	m := testMatrix(n, 13)
	s := openWithRows(t, writeTestStore(t, m, 8), 0, int64(8*n*n)) // all rows fit
	ctx := context.Background()
	buf := make([]float64, 0, n)
	var err error
	for i := 0; i < 8; i++ { // pre-warm the hot set
		if buf, err = s.RowInto(ctx, i, buf); err != nil {
			t.Fatal(err)
		}
	}
	var i int
	allocs := testing.AllocsPerRun(200, func() {
		i++
		var err error
		buf, err = s.RowInto(ctx, i%8, buf)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("row-cache-hit RowInto allocates %v per op, want 0", allocs)
	}
	// Dist on cached rows is allocation-free too.
	allocs = testing.AllocsPerRun(200, func() {
		i++
		if _, err := s.Dist(ctx, i%8, (i*7)%n); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("row-cache-hit Dist allocates %v per op, want 0", allocs)
	}
}

// TestRowSpanReadsEveryCodec: cold row assembly is the same routine for
// every codec. With both caches off each row costs q span reads and no
// tile decode; a tile is read whole exactly once — its first touch, by
// either read path — and every later segment is one pread of a fraction
// of it, timed into the codec's decode histogram.
func TestRowSpanReadsEveryCodec(t *testing.T) {
	n, bs := 96, 48 // q=2; ivarint tiles hold 3 restart groups
	m := intMatrix(n, 37)
	for _, name := range []string{"raw", "ivarint", "f32"} {
		c, err := CodecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name+".apsp")
		if err := WriteWithCodec(path, m, bs, c); err != nil {
			t.Fatal(err)
		}
		s, fr := openFaulty(t, path, Options{})
		ctx := context.Background()
		opened := fr.Reads()
		// A first touch through Tile verifies and memoises like one by the
		// span path does: row 0 then reads (0,0) small and (0,1) whole.
		if _, err := s.Tile(ctx, 0, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Row(ctx, 0); err != nil {
			t.Fatal(err)
		}
		reads, spans := fr.Reads(), s.spanReads.Load()
		if reads-opened != 3 || spans != 2 {
			t.Fatalf("%s: %d disk reads and %d span reads after first touches, want 3 and 2", name, reads-opened, spans)
		}
		var biggest int64
		for bj := 0; bj < 2; bj++ {
			for r := 0; r < bs; r++ {
				off, sz := codecs[s.TileCodec(0, bj)].RowSpan(s.rows[bj].Load(), bs, r)
				if _, length, _ := s.TileSpan(0, bj); off < 0 || int64(off+sz) > length {
					t.Fatalf("%s: tile (0,%d) row %d span [%d,+%d) outside the tile", name, bj, r, off, sz)
				}
				biggest = max(biggest, int64(sz))
			}
		}
		if _, length, _ := s.TileSpan(0, 0); biggest*2 > length {
			t.Fatalf("%s: largest row span is %d of a %d-byte tile", name, biggest, length)
		}
		for i := 0; i < bs; i++ {
			row, err := s.Row(ctx, i)
			if err != nil {
				t.Fatal(err)
			}
			for j, v := range row {
				if want := m.At(i, j); v != want && !(math.IsInf(v, 1) && math.IsInf(want, 1)) && name != "f32" {
					t.Fatalf("%s (%d,%d) = %v, want %v", name, i, j, v, want)
				}
			}
		}
		if got := fr.Reads() - reads; got != int64(2*bs) {
			t.Fatalf("%s: %d disk reads for %d memoised rows, want q=2 per row", name, got, bs)
		}
		if got := s.spanReads.Load() - spans; got != int64(2*bs) {
			t.Fatalf("%s: %d span reads for %d rows, want %d", name, got, bs, 2*bs)
		}
		if st := s.Snapshot().Tiles; st.Misses != 1 {
			t.Fatalf("%s: row assembly decoded tiles: %+v", name, st)
		}
		if got := s.decodeHist[c.ID()].Snapshot().Count(); got != uint64(1+2+2*bs) {
			t.Fatalf("%s: decode histogram holds %d samples, want 1 tile + %d row segments", name, got, 2+2*bs)
		}
	}
}
