package store

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"apspark/internal/faultfs"
	"apspark/internal/matrix"
)

// openFaulty opens the test store through a faultfs wrapper so tests can
// inject disk failures under the store's read path.
func openFaulty(t *testing.T, path string, opts Options) (*Store, *faultfs.Reader) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fr := faultfs.New(readerAtOf(raw))
	s, err := OpenReader(fr, int64(len(raw)), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, fr
}

// readerAtOf adapts a byte slice (bytes.Reader without the import noise).
type byteReaderAt []byte

func readerAtOf(b []byte) byteReaderAt { return byteReaderAt(b) }

func (b byteReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 || off >= int64(len(b)) {
		return 0, errors.New("read past end")
	}
	n := copy(p, b[off:])
	if n < len(p) {
		return n, errors.New("short read past end")
	}
	return n, nil
}

// TestTransientFaultsWithinRetryBudget: injected EIO bursts shorter than
// the retry budget are absorbed — every query still returns correct data
// and the retry counter records the flakiness.
func TestTransientFaultsWithinRetryBudget(t *testing.T) {
	n := 24
	m := testMatrix(n, 5)
	path := writeTestStore(t, m, 8)
	s, fr := openFaulty(t, path, Options{
		TileCacheBytes: 1 << 20, RowCacheBytes: 1 << 20,
		ReadRetries: 2, RetryBackoff: time.Microsecond,
	})
	// Every other read fails: each store read sees at most one EIO before
	// its retry lands on a clean ordinal, well inside the 2-retry budget.
	fr.Inject(faultfs.Fault{Kind: faultfs.KindErr, Every: 2})
	ctx := context.Background()
	for i := 0; i < n; i++ {
		row, err := s.Row(ctx, i)
		if err != nil {
			t.Fatalf("row %d under transient faults: %v", i, err)
		}
		for j := range row {
			if row[j] != m.At(i, j) {
				t.Fatalf("row %d col %d = %v, want %v (fault leaked into data)", i, j, row[j], m.At(i, j))
			}
		}
	}
	if s.RetriedReads() == 0 {
		t.Fatal("no retries recorded despite injected faults")
	}
	if s.Quarantined() != 0 {
		t.Fatalf("%d tiles quarantined by transient faults", s.Quarantined())
	}
}

// TestPersistentFaultsExhaustBudget: a fault outlasting the retry budget
// surfaces as an error (wrapping the injected one), never as wrong data.
func TestPersistentFaultsExhaustBudget(t *testing.T) {
	n := 24
	m := testMatrix(n, 5)
	path := writeTestStore(t, m, 8)
	s, fr := openFaulty(t, path, Options{
		TileCacheBytes: 1 << 20,
		ReadRetries:    1, RetryBackoff: time.Microsecond,
	})
	fr.Inject(faultfs.Fault{Kind: faultfs.KindErr})
	if _, err := s.Tile(context.Background(), 0, 0); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("err = %v, want the injected error surfaced", err)
	}
	if s.Quarantined() != 0 {
		t.Fatal("transient-class fault quarantined a tile")
	}
	// The disk heals: the same tile now serves fine (no sticky failure).
	fr.Clear()
	tile, err := s.Tile(context.Background(), 0, 0)
	if err != nil {
		t.Fatalf("tile after faults cleared: %v", err)
	}
	if got := tile.At(1, 2); got != m.At(1, 2) {
		t.Fatalf("healed tile serves %v, want %v", got, m.At(1, 2))
	}
}

// TestShortReadsRetried: short reads are I/O errors like any other and
// consume retry budget rather than truncating data.
func TestShortReadsRetried(t *testing.T) {
	n := 24
	m := testMatrix(n, 9)
	path := writeTestStore(t, m, 8)
	s, fr := openFaulty(t, path, Options{
		ReadRetries: 1, RetryBackoff: time.Microsecond,
	})
	fr.Inject(faultfs.Fault{Kind: faultfs.KindShortRead, Every: 2})
	ctx := context.Background()
	for i := 0; i < n; i += 5 {
		for j := 0; j < n; j += 5 {
			got, err := s.Dist(ctx, i, j)
			if err != nil {
				t.Fatalf("dist(%d,%d): %v", i, j, err)
			}
			if got != m.At(i, j) {
				t.Fatalf("dist(%d,%d) = %v, want %v", i, j, got, m.At(i, j))
			}
		}
	}
}

// TestBitFlipQuarantines is the integrity acceptance criterion at store
// level: a flipped bit in a tile payload is detected by its CRC32C
// on a cold read, the tile is quarantined (typed error, no second disk
// read), and undamaged tiles keep serving.
func TestBitFlipQuarantines(t *testing.T) {
	n := 24
	m := testMatrix(n, 13)
	path := writeTestStore(t, m, 8)

	for name, opts := range map[string]Options{
		"tile-path": {TileCacheBytes: 1 << 20},
		"span-path": {RowCacheBytes: 1 << 20},
	} {
		t.Run(name, func(t *testing.T) {
			s, fr := openFaulty(t, path, opts)
			// Flip one payload bit in tile (0,0)'s float region on every
			// read overlapping it.
			ref := s.index[0]
			fr.Inject(faultfs.Fault{
				Kind: faultfs.KindBitFlip, FlipBit: int64(matrix.HeaderLen)*8 + 17,
				OffLo: ref.off, OffHi: ref.off + ref.length,
			})
			ctx := context.Background()
			_, err := s.Dist(ctx, 0, 0)
			if !errors.Is(err, ErrCorruptTile) {
				t.Fatalf("flipped bit served: err = %v, want ErrCorruptTile", err)
			}
			if s.Quarantined() != 1 {
				t.Fatalf("quarantined = %d, want 1", s.Quarantined())
			}
			readsBefore := fr.Reads()
			if _, err := s.Dist(ctx, 0, 0); !errors.Is(err, ErrCorruptTile) {
				t.Fatalf("second read of quarantined tile: %v", err)
			}
			if fr.Reads() != readsBefore {
				t.Fatal("quarantined tile was re-read from disk")
			}
			// A row outside the damaged tile still serves correctly.
			row, err := s.Row(ctx, n-1)
			if err != nil {
				t.Fatalf("undamaged row: %v", err)
			}
			if row[n-1] != m.At(n-1, n-1) {
				t.Fatal("undamaged row served wrong data")
			}
		})
	}
}

// TestLatencyFaultsJustSlow: latency injection must not change results.
func TestLatencyFaultsJustSlow(t *testing.T) {
	n := 16
	m := testMatrix(n, 21)
	path := writeTestStore(t, m, 8)
	s, fr := openFaulty(t, path, Options{})
	fr.Inject(faultfs.Fault{Kind: faultfs.KindLatency, Latency: time.Millisecond, Count: 4})
	got, err := s.Dist(context.Background(), 3, 7)
	if err != nil || got != m.At(3, 7) {
		t.Fatalf("dist under latency = %v (err %v), want %v", got, err, m.At(3, 7))
	}
}

// checkRowsRightOrTyped reads every row and holds the store to its
// invariant: a row either equals the matrix bit for bit or fails with
// ErrCorruptTile — never a wrong value. It returns how many rows failed.
func checkRowsRightOrTyped(t *testing.T, s *Store, m *matrix.Block) (failed int) {
	t.Helper()
	for i := 0; i < m.R; i++ {
		row, err := s.Row(context.Background(), i)
		if err != nil {
			if !errors.Is(err, ErrCorruptTile) {
				t.Fatalf("row %d: err = %v, want ErrCorruptTile", i, err)
			}
			failed++
			continue
		}
		for j, v := range row {
			if math.Float64bits(v) != math.Float64bits(m.At(i, j)) {
				t.Fatalf("(%d,%d) = %v, want %v: a fault leaked into served data", i, j, v, m.At(i, j))
			}
		}
	}
	return failed
}

// TestRestartLayoutBitFlips drives the row-addressable ivarint read path
// through every place a bit can rot — the restart table, a restart
// group, before and after the tile was memoised as verified — and holds
// each to "the right row or ErrCorruptTile plus quarantine".
func TestRestartLayoutBitFlips(t *testing.T) {
	n, bs := 80, 40 // 2x2 tiles of 3 restart groups each (16+16+8 rows)
	m := intMatrix(n, 29)
	path := filepath.Join(t.TempDir(), "c.apsp")
	if err := WriteWithCodec(path, m, bs, codecs[CodecIVarint]); err != nil {
		t.Fatal(err)
	}
	const tableOff = codecHdrLen + 1 // tile (0,0)'s restart table
	groupsEnd := func(s *Store) (table, g0, g1 int64) {
		ref := s.index[0]
		buf := make([]byte, tableOff+16)
		if err := s.readAt(buf, ref.off); err != nil {
			t.Fatal(err)
		}
		return ref.off + tableOff, ref.off + int64(binary.LittleEndian.Uint32(buf[tableOff:])), ref.off + int64(binary.LittleEndian.Uint32(buf[tableOff+8:]))
	}

	t.Run("cold", func(t *testing.T) {
		for name, where := range map[string]func(table, g0, g1 int64) int64{
			"table-offset": func(table, _, _ int64) int64 { return table + 1 },
			"table-crc":    func(table, _, _ int64) int64 { return table + 12 },
			"group":        func(_, g0, _ int64) int64 { return g0 + 5 },
		} {
			s, fr := openFaulty(t, path, Options{})
			at := where(groupsEnd(s))
			// The disk returns the flipped byte on every read covering it.
			fr.Inject(faultfs.Fault{Kind: faultfs.KindBitFlip, FlipBit: 8 * (at - s.index[0].off), OffLo: at, OffHi: at + 1})
			if failed := checkRowsRightOrTyped(t, s, m); failed != bs {
				t.Fatalf("%s: %d rows failed, want the %d rows through tile (0,0)", name, failed, bs)
			}
			if s.Quarantined() != 1 {
				t.Fatalf("%s: quarantined = %d, want 1", name, s.Quarantined())
			}
		}
	})

	t.Run("after-memoised", func(t *testing.T) {
		s, fr := openFaulty(t, path, Options{})
		if failed := checkRowsRightOrTyped(t, s, m); failed != 0 {
			t.Fatalf("clean store failed %d rows", failed)
		}
		table, g0, g1 := groupsEnd(s)
		// The table now rots on disk: span reads never revisit it, so every
		// row still serves, from the copy verified at first touch.
		fr.Inject(faultfs.Fault{Kind: faultfs.KindBitFlip, FlipBit: 3, OffLo: table, OffHi: table + 8})
		if failed := checkRowsRightOrTyped(t, s, m); failed != 0 || s.Quarantined() != 0 {
			t.Fatalf("rotted table of a memoised tile: %d rows failed, %d quarantined", failed, s.Quarantined())
		}
		// Restart group 1 (rows 16..31) rots: its next read fails the
		// group checksum — the values are never decoded — and quarantines
		// the tile; rows of group 0 read before that were still right.
		reads := fr.Reads()
		fr.Inject(faultfs.Fault{Kind: faultfs.KindBitFlip, FlipBit: 8 * 7, OffLo: g0, OffHi: g1})
		if failed := checkRowsRightOrTyped(t, s, m); failed != bs-16 {
			t.Fatalf("rotted group of a memoised tile: %d rows failed, want %d (row 16 on)", failed, bs-16)
		}
		if s.Quarantined() != 1 {
			t.Fatalf("quarantined = %d, want 1", s.Quarantined())
		}
		if _, err := s.Row(context.Background(), 0); !errors.Is(err, ErrCorruptTile) {
			t.Fatalf("quarantined tile served again: %v", err)
		}
		if got := fr.Reads() - reads; got >= int64(2*n) {
			t.Fatalf("%d reads after the rot: the quarantined tile is being re-read", got)
		}
	})
}
