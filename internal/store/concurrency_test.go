package store

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"apspark/internal/matrix"
)

// The -race concurrency suite of the sharded read path: overlapping rows
// and tiles from many goroutines, both byte-budget invariants polled
// throughout, singleflight coalescing pinned deterministically, and the
// pool-check arena proving that nothing the caches own ever returns to
// the block arena.

// TestShardedCacheConcurrency hammers a store whose budgets make both
// caches stripe 4-way (room for 8 to 15 items) from many goroutines
// issuing overlapping Dist/Row/RowInto/RowView/Tile queries, verifying
// every answer against the source matrix and both budget invariants at
// every step. Pool checking is on for the whole test: a cached tile or row
// leaking into the matrix arena would show up as a double-Put when a
// kernel recycles the same backing array.
func TestShardedCacheConcurrency(t *testing.T) {
	n, bs := 64, 8 // 64 tiles of 512 B
	m := testMatrix(n, 11)
	path := writeTestStore(t, m, bs)

	matrix.SetPoolCheck(true)
	defer matrix.SetPoolCheck(false)

	tileBudget := int64(8 * 8 * bs * bs) // 8 tiles
	rowBudget := int64(10 * 8 * n)       // 10 rows
	s, err := OpenWithOptions(path, Options{
		TileCacheBytes: tileBudget,
		RowCacheBytes:  rowBudget,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const workers = 12
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	ctx := context.Background()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			rowBuf := make([]float64, 0, n)
			check := func(i int, row []float64) error {
				for j := 0; j < n; j++ {
					want := m.At(i, j)
					if row[j] != want && !(math.IsInf(row[j], 1) && math.IsInf(want, 1)) {
						return fmt.Errorf("row %d col %d = %v, want %v", i, j, row[j], want)
					}
				}
				return nil
			}
			for it := 0; it < 250; it++ {
				// Overlapping working set: everyone churns the same few
				// rows/tiles half the time, random ones otherwise.
				i := rng.Intn(n)
				if it%2 == 0 {
					i = it % 8
				}
				var err error
				switch it % 5 {
				case 0:
					var d float64
					j := rng.Intn(n)
					if d, err = s.Dist(ctx, i, j); err == nil {
						want := m.At(i, j)
						if d != want && !(math.IsInf(d, 1) && math.IsInf(want, 1)) {
							err = fmt.Errorf("Dist(%d,%d) = %v, want %v", i, j, d, want)
						}
					}
				case 1:
					var row []float64
					if row, err = s.Row(ctx, i); err == nil {
						err = check(i, row)
					}
				case 2:
					if rowBuf, err = s.RowInto(ctx, i, rowBuf); err == nil {
						err = check(i, rowBuf)
					}
				case 3:
					var row []float64
					if row, err = s.RowView(ctx, i); err == nil {
						err = check(i, row)
					}
				default:
					var tile *matrix.Block
					bi, bj := rng.Intn(s.q), rng.Intn(s.q)
					if tile, err = s.Tile(ctx, bi, bj); err == nil {
						r, c := rng.Intn(tile.R), rng.Intn(tile.C)
						want := m.At(bi*bs+r, bj*bs+c)
						if got := tile.At(r, c); got != want && !(math.IsInf(got, 1) && math.IsInf(want, 1)) {
							err = fmt.Errorf("Tile(%d,%d)[%d,%d] = %v, want %v", bi, bj, r, c, got, want)
						}
					}
				}
				if err != nil {
					errs <- err
					return
				}
				if st := s.Snapshot().Tiles; st.BytesInUse > st.BytesBudget {
					errs <- fmt.Errorf("tile cache %d bytes over budget %d", st.BytesInUse, st.BytesBudget)
					return
				}
				if rst := s.Snapshot().Rows; rst.BytesInUse > rst.BytesBudget {
					errs <- fmt.Errorf("row cache %d bytes over budget %d", rst.BytesInUse, rst.BytesBudget)
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

	snap := s.Snapshot()
	st, rst := snap.Tiles, snap.Rows
	if st.Hits == 0 || st.Evictions == 0 {
		t.Fatalf("workload did not exercise the tile cache: %+v", st)
	}
	if rst.Hits == 0 || rst.Evictions == 0 {
		t.Fatalf("workload did not exercise the row cache: %+v", rst)
	}
	if len(st.Shards) != 4 || len(rst.Shards) != 4 {
		t.Fatalf("shard stats missing: tile=%d row=%d", len(st.Shards), len(rst.Shards))
	}
	var sum int64
	for _, sh := range st.Shards {
		sum += sh.BytesInUse
	}
	if sum != st.BytesInUse {
		t.Fatalf("shard bytes sum %d != aggregate %d", sum, st.BytesInUse)
	}
	if ps := matrix.PoolCheckStats(); ps.DoublePuts != 0 {
		t.Fatalf("pool-safety violated: %d double Puts (a cached block escaped into the arena)", ps.DoublePuts)
	}
}

// TestSingleFlightCoalescesMisses parks the leader of a cold-tile read on
// a hook until every other goroutine requesting the same tile has
// registered as a coalesced follower, then releases it: exactly one disk
// read and one miss must be recorded, and every follower must share the
// leader's block.
func TestSingleFlightCoalescesMisses(t *testing.T) {
	n, bs := 32, 8
	m := testMatrix(n, 3)
	s, err := OpenWithOptions(writeTestStore(t, m, bs), Options{TileCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const followers = 7
	reads := make(chan struct{}, 16)
	release := make(chan struct{})
	// Installed before any concurrency starts; readTile runs it outside
	// the shard lock, so parking the leader here blocks no one else.
	s.readHook = func(bi, bj int) {
		reads <- struct{}{}
		<-release
	}

	var wg sync.WaitGroup
	blocks := make([]*matrix.Block, followers+1)
	errsArr := make([]error, followers+1)
	for g := 0; g <= followers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			blocks[g], errsArr[g] = s.Tile(context.Background(), 1, 1)
		}(g)
	}

	// Wait for the leader to reach the disk, then for every follower to
	// register on its flight, then let the read finish.
	<-reads
	deadline := time.Now().Add(10 * time.Second)
	for s.Snapshot().Tiles.Coalesced < followers {
		if time.Now().After(deadline) {
			t.Fatalf("followers never coalesced: %+v", s.Snapshot().Tiles)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	for g, err := range errsArr {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
		if blocks[g] != blocks[0] {
			t.Fatalf("goroutine %d got a different block: coalescing failed", g)
		}
	}
	st := s.Snapshot().Tiles
	if st.Misses != 1 || st.Coalesced != followers {
		t.Fatalf("stats = %+v, want 1 miss and %d coalesced", st, followers)
	}
	select {
	case <-reads:
		t.Fatal("second disk read for a coalesced tile")
	default:
	}
}

// TestRowSingleFlightCoalescesMisses: the row cache coalesces concurrent
// cold reads of the same row onto one assembly — one miss, one set of
// span reads, every caller sharing the leader's slice.
func TestRowSingleFlightCoalescesMisses(t *testing.T) {
	n, bs := 32, 8
	m := testMatrix(n, 15)
	s, err := OpenWithOptions(writeTestStore(t, m, bs), Options{RowCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const followers = 7
	reads := make(chan struct{}, 16)
	release := make(chan struct{})
	s.readHook = func(bi, bj int) {
		reads <- struct{}{}
		<-release
	}

	var wg sync.WaitGroup
	rows := make([][]float64, followers+1)
	errsArr := make([]error, followers+1)
	for g := 0; g <= followers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rows[g], errsArr[g] = s.RowView(context.Background(), 9)
		}(g)
	}
	<-reads // leader reached its first span read
	deadline := time.Now().Add(10 * time.Second)
	for s.Snapshot().Rows.Coalesced < followers {
		if time.Now().After(deadline) {
			t.Fatalf("followers never coalesced: %+v", s.Snapshot().Rows)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	// Drain the remaining span-read notifications of the leader's q-1
	// other segments.
	spans := 1
	for len(reads) > 0 {
		<-reads
		spans++
	}
	if spans != s.q {
		t.Fatalf("leader did %d span reads, want %d", spans, s.q)
	}
	for g := 0; g <= followers; g++ {
		if errsArr[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errsArr[g])
		}
		if &rows[g][0] != &rows[0][0] {
			t.Fatalf("goroutine %d got a different row slice: coalescing failed", g)
		}
	}
	if st := s.Snapshot().Rows; st.Misses != 1 || st.Coalesced != followers {
		t.Fatalf("row stats = %+v, want 1 miss and %d coalesced", st, followers)
	}
}

// TestConcurrentFirstTouchCompressedTile: 32 goroutines released at once
// onto rows of one unverified ivarint panel, no cache to coalesce them.
// Each first-touches the same tiles — whole read, CRC, restart table —
// and races to memoise it; all must read right rows, the memo must hold,
// and (under -race) the publication must be clean.
func TestConcurrentFirstTouchCompressedTile(t *testing.T) {
	n, bs := 64, 32
	m := intMatrix(n, 43)
	path := filepath.Join(t.TempDir(), "c.apsp")
	if err := WriteWithCodec(path, m, bs, CodecIVarint); err != nil {
		t.Fatal(err)
	}
	s, err := OpenWithOptions(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.TileCodec(0, 0) != CodecIVarint {
		t.Fatalf("tile (0,0) codec %d, want ivarint", s.TileCodec(0, 0))
	}
	const goroutines = 32
	start := make(chan struct{})
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			row, err := s.Row(context.Background(), g%bs)
			if err == nil {
				for j, v := range row {
					if math.Float64bits(v) != math.Float64bits(m.At(g%bs, j)) {
						err = fmt.Errorf("goroutine %d: (%d,%d) = %v, want %v", g, g%bs, j, v, m.At(g%bs, j))
						break
					}
				}
			}
			errs <- err
		}(g)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if s.rows[0].Load() == nil || s.rows[1].Load() == nil || s.Snapshot().Quarantined != 0 {
		t.Fatalf("after the stampede: memo (0,0)=%v (0,1)=%v, %d quarantined", s.rows[0].Load(), s.rows[1].Load(), s.Snapshot().Quarantined)
	}
}
