package store

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"apspark/internal/matrix"
)

// testMatrix builds a deterministic n x n "distance-like" matrix: zero
// diagonal, symmetric values, a sprinkle of +Inf pairs.
func testMatrix(n int, seed int64) *matrix.Block {
	rng := rand.New(rand.NewSource(seed))
	m := matrix.New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 0)
		for j := i + 1; j < n; j++ {
			v := matrix.Inf
			if rng.Intn(10) != 0 {
				v = 1 + rng.Float64()*100
			}
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

func writeTestStore(t *testing.T, m *matrix.Block, blockSize int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "dist.apsp")
	if err := WriteWithCodec(path, m, blockSize, CodecRaw); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestWriteRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	for name, tc := range map[string]struct {
		m  *matrix.Block
		bs int
	}{
		"nil":        {nil, 4},
		"phantom":    {matrix.NewPhantom(8, 8), 4},
		"non-square": {matrix.NewZero(4, 6), 2},
		"zero bs":    {matrix.NewZero(4, 4), 0},
		"empty":      {matrix.NewZero(0, 0), 1},
	} {
		if err := WriteWithCodec(filepath.Join(dir, "x.apsp"), tc.m, tc.bs, CodecRaw); err == nil {
			t.Errorf("%s: Write accepted bad input", name)
		}
	}
}

// TestRoundTripExact checks every element of every tile against the
// source matrix, across even and ragged tilings, with an unlimited and a
// tiny cache.
func TestRoundTripExact(t *testing.T) {
	for _, tc := range []struct {
		n, bs  int
		budget int64
	}{
		{n: 32, bs: 8, budget: 1 << 20}, // even tiling, everything cached
		{n: 33, bs: 8, budget: 1 << 20}, // ragged last tile row/col
		{n: 32, bs: 8, budget: 2 * 8 * 8 * 8},
		{n: 30, bs: 7, budget: 0},       // caching disabled
		{n: 16, bs: 16, budget: 1},      // single tile larger than budget
		{n: 5, bs: 64, budget: 1 << 20}, // blockSize clamped to n
	} {
		m := testMatrix(tc.n, int64(tc.n))
		s, err := OpenWithOptions(writeTestStore(t, m, tc.bs), Options{TileCacheBytes: tc.budget})
		if err != nil {
			t.Fatalf("n=%d bs=%d: %v", tc.n, tc.bs, err)
		}
		if s.N() != tc.n {
			t.Fatalf("N = %d, want %d", s.N(), tc.n)
		}
		for i := 0; i < tc.n; i++ {
			row, err := s.Row(context.Background(), i)
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < tc.n; j++ {
				want := m.At(i, j)
				d, err := s.Dist(context.Background(), i, j)
				if err != nil {
					t.Fatal(err)
				}
				same := d == want || (math.IsInf(d, 1) && math.IsInf(want, 1))
				if !same || (row[j] != d && !(math.IsInf(row[j], 1) && math.IsInf(d, 1))) {
					t.Fatalf("n=%d bs=%d (%d,%d): Dist=%v Row=%v want %v", tc.n, tc.bs, i, j, d, row[j], want)
				}
			}
			if st := s.Snapshot().Tiles; st.BytesInUse > st.BytesBudget {
				t.Fatalf("n=%d bs=%d: cache %d bytes over budget %d", tc.n, tc.bs, st.BytesInUse, st.BytesBudget)
			}
		}
		s.Close()
	}
}

func TestCacheHitsAndEvictions(t *testing.T) {
	n, bs := 32, 8 // 16 tiles of 512 bytes each
	m := testMatrix(n, 1)
	tileBytes := int64(8 * bs * bs)
	s, err := OpenWithOptions(writeTestStore(t, m, bs), Options{TileCacheBytes: 2 * tileBytes}) // room for 2 tiles
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if _, err := s.Tile(context.Background(), 0, 0); err != nil {
		t.Fatal(err)
	}
	a, err := s.Tile(context.Background(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := s.Tile(context.Background(), 0, 0)
	if a != b {
		t.Fatal("cache hit returned a different block")
	}
	st := s.Snapshot().Tiles
	if st.Hits != 2 || st.Misses != 1 || st.Evictions != 0 {
		t.Fatalf("stats after hits: %+v", st)
	}

	// Touch two more tiles: the budget holds 2, so the LRU one (0,1) must
	// go while the re-touched (0,0) survives.
	if _, err := s.Tile(context.Background(), 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Tile(context.Background(), 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Tile(context.Background(), 0, 2); err != nil {
		t.Fatal(err)
	}
	st = s.Snapshot().Tiles
	if st.Evictions != 1 || st.Items != 2 || st.BytesInUse != 2*tileBytes {
		t.Fatalf("stats after evictions: %+v", st)
	}
	// (0,0) still cached, (0,1) evicted: hit count isolates which.
	before := s.Snapshot().Tiles.Hits
	s.Tile(context.Background(), 0, 0)
	if s.Snapshot().Tiles.Hits != before+1 {
		t.Fatal("recently used tile was evicted")
	}
	before = s.Snapshot().Tiles.Misses
	s.Tile(context.Background(), 0, 1)
	if s.Snapshot().Tiles.Misses != before+1 {
		t.Fatal("LRU tile survived eviction")
	}
	if st := s.Snapshot().Tiles; st.BytesInUse > st.BytesBudget {
		t.Fatalf("over budget: %+v", st)
	}
}

func TestOversizeTileServedUncached(t *testing.T) {
	m := testMatrix(16, 2)
	s, err := OpenWithOptions(writeTestStore(t, m, 8), Options{TileCacheBytes: 100}) // tile = 512 bytes > 100
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Tile(context.Background(), 1, 1); err != nil {
		t.Fatal(err)
	}
	st := s.Snapshot().Tiles
	if st.Items != 0 || st.BytesInUse != 0 {
		t.Fatalf("oversize tile was cached: %+v", st)
	}
}

func TestBoundsErrors(t *testing.T) {
	s, err := OpenWithOptions(writeTestStore(t, testMatrix(10, 3), 4), Options{TileCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Dist(context.Background(), -1, 0); err == nil {
		t.Error("negative vertex accepted")
	}
	if _, err := s.Dist(context.Background(), 0, 10); err == nil {
		t.Error("out-of-range vertex accepted")
	}
	if _, err := s.Row(context.Background(), 10); err == nil {
		t.Error("out-of-range row accepted")
	}
	if _, err := s.Tile(context.Background(), 3, 0); err == nil {
		t.Error("out-of-range tile accepted")
	}
}

// TestOpenRejectsCorruption flips every interesting failure knob on the
// file format: the reader must refuse, never panic.
func TestOpenRejectsCorruption(t *testing.T) {
	m := testMatrix(12, 4)
	good, err := os.ReadFile(writeTestStore(t, m, 4))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	tryOpen := func(name string, mutate func([]byte) []byte) {
		t.Helper()
		buf := mutate(append([]byte(nil), good...))
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err := OpenWithOptions(path, Options{TileCacheBytes: 1 << 20}); err == nil {
			s.Close()
			t.Errorf("%s: corrupt store opened cleanly", name)
		}
	}
	tryOpen("truncated-header", func(b []byte) []byte { return b[:10] })
	tryOpen("bad-magic", func(b []byte) []byte { b[0] = 'X'; return b })
	tryOpen("bad-version", func(b []byte) []byte { b[8] = 99; return b })
	tryOpen("zero-n", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[12:16], 0)
		return b
	})
	tryOpen("q-mismatch", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[20:24], 7)
		return b
	})
	tryOpen("index-out-of-file", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[24:32], 1<<40)
		return b
	})
	tryOpen("truncated-body", func(b []byte) []byte { return b[:len(b)-5] })
	// Forged q = n = 2^32-1 with b = 1 passes the shape plausibility
	// checks but makes q*q*idxEntryLen wrap 64-bit int; the index-size
	// guard must reject it instead of panicking in make().
	tryOpen("q-overflow-forgery", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[12:16], 0xFFFFFFFF)
		binary.LittleEndian.PutUint32(b[16:20], 1)
		binary.LittleEndian.PutUint32(b[20:24], 0xFFFFFFFF)
		return b
	})
}

// TestCorruptTilePayload corrupts a tile body (not the index): Open
// succeeds, the read of that tile must error.
func TestCorruptTilePayload(t *testing.T) {
	path := writeTestStore(t, testMatrix(12, 5), 4)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// First tile starts right after header+index; smash its magic byte.
	tileOff := 24 + 9*24 // header + 3x3 index
	buf[tileOff] = 0x42
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenWithOptions(path, Options{TileCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Tile(context.Background(), 0, 0); err == nil {
		t.Fatal("corrupt tile decoded cleanly")
	}
	if _, err := s.Tile(context.Background(), 1, 1); err != nil {
		t.Fatalf("undamaged tile unreadable: %v", err)
	}
}

// TestConcurrentQueries hammers one store from many goroutines with a
// cache that can only hold a fraction of the tiles, verifying answers
// against the source matrix and the budget invariant throughout. Run
// under -race this is the store half of the acceptance criterion.
func TestConcurrentQueries(t *testing.T) {
	n, bs := 48, 8 // 36 tiles
	m := testMatrix(n, 7)
	tileBytes := int64(8 * bs * bs)
	s, err := OpenWithOptions(writeTestStore(t, m, bs), Options{TileCacheBytes: 3 * tileBytes})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for it := 0; it < 300; it++ {
				i, j := rng.Intn(n), rng.Intn(n)
				d, err := s.Dist(context.Background(), i, j)
				if err != nil {
					errs <- err
					return
				}
				want := m.At(i, j)
				if d != want && !(math.IsInf(d, 1) && math.IsInf(want, 1)) {
					errs <- fmt.Errorf("Dist(%d,%d) = %v, want %v", i, j, d, want)
					return
				}
				if it%25 == 0 {
					if _, err := s.Row(context.Background(), rng.Intn(n)); err != nil {
						errs <- err
						return
					}
				}
				if st := s.Snapshot().Tiles; st.BytesInUse > st.BytesBudget {
					errs <- fmt.Errorf("cache %d bytes over budget %d", st.BytesInUse, st.BytesBudget)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.Snapshot().Tiles
	if st.Hits == 0 || st.Evictions == 0 {
		t.Fatalf("workload did not exercise the cache: %+v", st)
	}
}

// TestTileContextCancellation: a cancelled context blocks the disk read
// of a cache miss but still serves cache hits (cheap, no IO).
func TestTileContextCancellation(t *testing.T) {
	m := testMatrix(12, 3)
	path := writeTestStore(t, m, 4)
	s, err := OpenWithOptions(path, Options{TileCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Warm one tile with a live context.
	if _, err := s.Tile(context.Background(), 0, 0); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Tile(ctx, 1, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("cold tile under cancelled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := s.Tile(ctx, 0, 0); err != nil {
		t.Fatalf("hot tile under cancelled ctx should still serve: %v", err)
	}
	if _, err := s.Dist(ctx, 8, 8); !errors.Is(err, context.Canceled) {
		t.Fatalf("Dist miss under cancelled ctx: err = %v", err)
	}
	if _, err := s.Row(ctx, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("Row miss under cancelled ctx: err = %v", err)
	}
	// nil context behaves as Background.
	if _, err := s.Row(nil, 5); err != nil {
		t.Fatalf("nil ctx Row: %v", err)
	}
}
