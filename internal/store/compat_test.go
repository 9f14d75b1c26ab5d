package store

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"apspark/internal/matrix"
)

// writeV1Store synthesizes a version-1 store file — 16-byte index entries,
// no checksums — exactly as the first format revision wrote it.
func writeV1Store(t *testing.T, path string, m *matrix.Block, blockSize int) {
	t.Helper()
	n := m.R
	if blockSize > n {
		blockSize = n
	}
	q := (n + blockSize - 1) / blockSize
	hdr := make([]byte, 0, fileHdrLen+q*q*16)
	hdr = append(hdr, magic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, 1)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(n))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(blockSize))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(q))
	off := int64(fileHdrLen + q*q*16)
	var tiles []byte
	for bi := 0; bi < q; bi++ {
		h := tileEdge(n, blockSize, bi)
		for bj := 0; bj < q; bj++ {
			w := tileEdge(n, blockSize, bj)
			tile := matrix.New(h, w)
			if err := m.ExtractInto(tile, bi*blockSize, bj*blockSize); err != nil {
				t.Fatal(err)
			}
			buf := tile.AppendMarshal(nil)
			hdr = binary.LittleEndian.AppendUint64(hdr, uint64(off))
			hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(buf)))
			tiles = append(tiles, buf...)
			off += int64(len(buf))
		}
	}
	if err := os.WriteFile(path, append(hdr, tiles...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestV1StoreRefused: version 1 carries no checksums, so nothing it holds
// could pass the verify-once gate; nothing has written it since v2, and
// Open now refuses it as an unsupported version rather than malformed.
func TestV1StoreRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.apsp")
	writeV1Store(t, path, testMatrix(25, 31), 8)
	s, err := Open(path, 1<<20)
	if err == nil {
		s.Close()
		t.Fatal("version-1 store opened")
	}
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
}

// writeV2Store synthesizes a version-2 store file — 24-byte index
// entries carrying CRC32-C over raw tile bytes, no codec byte — exactly
// as the pre-codec format revision wrote it, pinning v2 compatibility
// against real v2 bytes rather than against this build's writer.
func writeV2Store(t *testing.T, path string, m *matrix.Block, blockSize int) {
	t.Helper()
	n := m.R
	if blockSize > n {
		blockSize = n
	}
	q := (n + blockSize - 1) / blockSize
	hdr := make([]byte, 0, fileHdrLen+q*q*idxEntryLen)
	hdr = append(hdr, magic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, versionV2)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(n))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(blockSize))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(q))
	off := int64(fileHdrLen + q*q*idxEntryLen)
	var tiles []byte
	for bi := 0; bi < q; bi++ {
		h := tileEdge(n, blockSize, bi)
		for bj := 0; bj < q; bj++ {
			w := tileEdge(n, blockSize, bj)
			tile := matrix.New(h, w)
			if err := m.ExtractInto(tile, bi*blockSize, bj*blockSize); err != nil {
				t.Fatal(err)
			}
			buf := tile.AppendMarshal(nil)
			hdr = binary.LittleEndian.AppendUint64(hdr, uint64(off))
			hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(buf)))
			hdr = binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(buf, castagnoli))
			hdr = binary.LittleEndian.AppendUint32(hdr, 0)
			tiles = append(tiles, buf...)
			off += int64(len(buf))
		}
	}
	if err := os.WriteFile(path, append(hdr, tiles...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestV2StoreOpensAndServes: the immediately-previous format (checksummed,
// uncompressed) still opens checksummed, reads as all-raw, and serves
// identical distances through every read path.
func TestV2StoreOpensAndServes(t *testing.T) {
	n := 25
	m := testMatrix(n, 31)
	path := filepath.Join(t.TempDir(), "v2.apsp")
	writeV2Store(t, path, m, 8)

	for name, opts := range map[string]Options{
		"tile-path": {TileCacheBytes: 1 << 20},
		"span-path": {RowCacheBytes: 1 << 20},
		"uncached":  {},
	} {
		t.Run(name, func(t *testing.T) {
			s, err := OpenWithOptions(path, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if s.Version() != versionV2 {
				t.Fatalf("version = %d, want 2", s.Version())
			}
			if s.CodecName() != "raw" || s.CodecRatio() != 1 {
				t.Fatalf("v2 store reports codec %q ratio %v, want raw at ratio 1", s.CodecName(), s.CodecRatio())
			}
			ctx := context.Background()
			for i := 0; i < n; i++ {
				row, err := s.Row(ctx, i)
				if err != nil {
					t.Fatal(err)
				}
				for j := range row {
					if row[j] != m.At(i, j) {
						t.Fatalf("v2 row %d col %d = %v, want %v", i, j, row[j], m.At(i, j))
					}
				}
			}
		})
	}
}

// TestV2BitFlipStillQuarantines: v2 CRC verification survives the codec
// refactor — a flipped payload byte is caught and the tile quarantined.
func TestV2BitFlipStillQuarantines(t *testing.T) {
	n := 12
	m := testMatrix(n, 17)
	path := filepath.Join(t.TempDir(), "v2.apsp")
	writeV2Store(t, path, m, 4)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	q := (n + 3) / 4
	buf[fileHdrLen+q*q*idxEntryLen+20] ^= 0x01 // inside tile (0,0) payload
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Tile(context.Background(), 0, 0); !errors.Is(err, ErrCorruptTile) {
		t.Fatalf("v2 flipped tile byte: err = %v, want ErrCorruptTile", err)
	}
	if s.Quarantined() != 1 {
		t.Fatalf("quarantined = %d, want 1", s.Quarantined())
	}
}

// encodeIVarintV1 is a frozen copy of the ivarint encoder as the build
// before restart groups shipped it (codec byte 1, magic 0xC2): one delta
// chain over the whole tile, no table. Old-layout compatibility is pinned
// against these bytes, not against anything this build can write.
func encodeIVarintV1(tile *matrix.Block) ([]byte, bool) {
	dst := []byte{0xC2}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(tile.R))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(tile.C))
	prev := int64(0)
	for _, v := range tile.Data {
		if math.IsInf(v, 1) {
			dst = binary.AppendUvarint(dst, 0)
			continue
		}
		if v != math.Trunc(v) || v <= -(1<<53) || v >= 1<<53 || (v == 0 && math.Signbit(v)) {
			return nil, false
		}
		iv := int64(v)
		d := iv - prev
		dst = binary.AppendUvarint(dst, uint64((d<<1)^(d>>63))+1)
		prev = iv
	}
	return dst, int64(len(dst)) < matrix.DenseMarshaledSize(tile.R, tile.C)
}

// writeOldIVarintStore synthesizes a v3 store as the pre-restart build's
// WriteWithCodec(ivarint) laid it out: old-layout tiles under codec byte
// 1, raw fallback for what the old encoder declined. Tile rows for which
// newLayout reports true are written by this build's encoder instead,
// which is the mix a generation's raw-panel copy produces when it carries
// old panels next to freshly solved ones.
func writeOldIVarintStore(t *testing.T, path string, m *matrix.Block, blockSize int, newLayout func(bi int) bool) {
	t.Helper()
	n := m.R
	q := (n + blockSize - 1) / blockSize
	hdr := make([]byte, 0, fileHdrLen+q*q*idxEntryLen)
	hdr = append(hdr, magic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, 3)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(n))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(blockSize))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(q))
	off := int64(fileHdrLen + q*q*idxEntryLen)
	var tiles []byte
	for bi := 0; bi < q; bi++ {
		for bj := 0; bj < q; bj++ {
			tile := matrix.New(tileEdge(n, blockSize, bi), tileEdge(n, blockSize, bj))
			if err := m.ExtractInto(tile, bi*blockSize, bj*blockSize); err != nil {
				t.Fatal(err)
			}
			var buf []byte
			var codec byte
			if newLayout != nil && newLayout(bi) {
				buf, codec = encodeTile(codecs[CodecIVarint], tile, nil)
			} else if enc, ok := encodeIVarintV1(tile); ok {
				buf, codec = enc, 1
			} else {
				buf, codec = tile.AppendMarshal(nil), CodecRaw
			}
			hdr = binary.LittleEndian.AppendUint64(hdr, uint64(off))
			hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(buf)))
			hdr = binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(buf, castagnoli))
			hdr = append(hdr, codec, 0, 0, 0)
			tiles = append(tiles, buf...)
			off += int64(len(buf))
		}
	}
	if err := os.WriteFile(path, append(hdr, tiles...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOldIVarintLayoutStillServes: a store written by the build before
// restart groups — and one mixing both layouts — opens, counts every
// ivarint tile under the one codec name, and serves every row bit for bit
// through the tile, span and uncached paths.
func TestOldIVarintLayoutStillServes(t *testing.T) {
	n, bs := 61, 16 // ragged, and the last panel is shorter than a restart group
	m := intMatrix(n, 23)
	m.Set(3, 40, 1.5) // tile (0,2) falls back to raw: three codec bytes in one store
	m.Set(40, 3, 1.5)
	dir := t.TempDir()
	for name, newLayout := range map[string]func(int) bool{
		"old":   nil,
		"mixed": func(bi int) bool { return bi%2 == 1 },
	} {
		path := filepath.Join(dir, name+".apsp")
		writeOldIVarintStore(t, path, m, bs, newLayout)
		for cfg, opts := range map[string]Options{
			"tile-path": {TileCacheBytes: 1 << 20},
			"span-path": {RowCacheBytes: 1 << 20},
			"uncached":  {},
		} {
			s, err := OpenWithOptions(path, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if s.TileCodec(0, 0) != codecIVarintV1 || s.TileCodec(0, 2) != CodecRaw {
				t.Fatalf("%s: tile codecs (0,0)=%d (0,2)=%d, want old ivarint and raw", name, s.TileCodec(0, 0), s.TileCodec(0, 2))
			}
			if newLayout != nil && s.TileCodec(1, 0) != CodecIVarint {
				t.Fatalf("mixed: tile (1,0) codec %d, want the restart layout", s.TileCodec(1, 0))
			}
			if got := s.CodecTiles(); got["ivarint"] != 14 || got["raw"] != 2 || len(got) != 2 {
				t.Fatalf("%s: codec census %v, want 14 ivarint + 2 raw", name, got)
			}
			if s.PreferredCodec().ID() != CodecIVarint {
				t.Fatalf("%s: preferred codec id %d, want the layout this build writes", name, s.PreferredCodec().ID())
			}
			ctx := context.Background()
			for pass := 0; pass < 2; pass++ { // first touch, then memoised
				for i := 0; i < n; i++ {
					row, err := s.Row(ctx, i)
					if err != nil {
						t.Fatalf("%s/%s row %d: %v", name, cfg, i, err)
					}
					for j := range row {
						if math.Float64bits(row[j]) != math.Float64bits(m.At(i, j)) {
							t.Fatalf("%s/%s (%d,%d) = %v, want %v", name, cfg, i, j, row[j], m.At(i, j))
						}
					}
				}
			}
			s.Close()
		}
	}
}

// TestOpenErrorsAreTyped maps each malformed-store class to the sentinel
// an operator dispatches on: not-a-store, unsupported version, malformed.
func TestOpenErrorsAreTyped(t *testing.T) {
	good, err := os.ReadFile(writeTestStore(t, testMatrix(12, 4), 4))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, tc := range []struct {
		name   string
		want   error
		mutate func([]byte) []byte
	}{
		{"bad-magic", ErrNotAStore, func(b []byte) []byte { b[0] = 'X'; return b }},
		{"empty-file", ErrMalformed, func(b []byte) []byte { return nil }},
		{"truncated-header", ErrMalformed, func(b []byte) []byte { return b[:10] }},
		{"future-version", ErrVersion, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:12], 99)
			return b
		}},
		{"zero-version", ErrVersion, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:12], 0)
			return b
		}},
		{"zero-n", ErrMalformed, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[12:16], 0)
			return b
		}},
		{"b-gt-n", ErrMalformed, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[16:20], 1000)
			return b
		}},
		{"q-mismatch", ErrMalformed, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[20:24], 7)
			return b
		}},
		{"truncated-index", ErrMalformed, func(b []byte) []byte { return b[:30] }},
		{"truncated-body", ErrMalformed, func(b []byte) []byte { return b[:len(b)-5] }},
		{"index-off-out-of-file", ErrMalformed, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[24:32], 1<<40)
			return b
		}},
		{"index-len-mismatch", ErrMalformed, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[32:40], 12345)
			return b
		}},
		{"q-overflow-forgery", ErrMalformed, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[12:16], 0xFFFFFFFF)
			binary.LittleEndian.PutUint32(b[16:20], 1)
			binary.LittleEndian.PutUint32(b[20:24], 0xFFFFFFFF)
			return b
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			buf := tc.mutate(append([]byte(nil), good...))
			path := filepath.Join(dir, tc.name)
			if err := os.WriteFile(path, buf, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Open(path, 1<<20)
			if err == nil {
				s.Close()
				t.Fatal("malformed store opened cleanly")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want errors.Is(%v)", err, tc.want)
			}
		})
	}
}

// FuzzOpen feeds arbitrary bytes (seeded with a valid store and its
// truncations) through Open: it must reject or accept, never panic. An
// accepted store must survive a probe query without panicking either.
func FuzzOpen(f *testing.F) {
	seed := filepath.Join(f.TempDir(), "seed.apsp")
	if err := Write(seed, testMatrix(9, 2), 4); err != nil {
		f.Fatal(err)
	}
	good, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	for _, cut := range []int{0, 7, 8, 12, 23, 24, 40, len(good) / 2, len(good) - 1} {
		if cut <= len(good) {
			f.Add(good[:cut])
		}
	}
	flip := append([]byte(nil), good...)
	flip[9] ^= 0xFF
	f.Add(flip)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.apsp")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		s, err := Open(path, 1<<16)
		if err != nil {
			return
		}
		defer s.Close()
		// Whatever parsed must also be probeable without panicking.
		_, _ = s.Dist(context.Background(), 0, 0)
		_, _ = s.Row(context.Background(), s.N()-1)
	})
}
