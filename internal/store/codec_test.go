package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"unsafe"

	"apspark/internal/faultfs"
	"apspark/internal/matrix"
)

// intMatrix builds a deterministic integer-weight "distance-like" matrix:
// zero diagonal, symmetric small integers (path sums of an integer-weight
// graph), a sprinkle of +Inf pairs — the shape ivarint is built for.
func intMatrix(n int, seed int64) *matrix.Block {
	rng := rand.New(rand.NewSource(seed))
	m := matrix.New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 0)
		for j := i + 1; j < n; j++ {
			v := matrix.Inf
			if rng.Intn(12) != 0 {
				v = float64(1 + rng.Intn(5000))
			}
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

func TestCodecByName(t *testing.T) {
	for name, wantID := range map[string]byte{
		"": CodecRaw, "raw": CodecRaw, "ivarint": CodecIVarint, "f32": CodecF32,
	} {
		c, err := CodecByName(name)
		if err != nil || c.ID() != wantID {
			t.Fatalf("CodecByName(%q) = %v, %v; want codec %d", name, c, err, wantID)
		}
	}
	if _, err := CodecByName("zstd"); err == nil {
		t.Fatal("CodecByName accepted an unknown codec")
	}
}

// TestIVarintRoundTripBitExact: every float64 bit pattern the codec
// accepts must decode back identically, including +Inf escapes and
// ragged shapes.
func TestIVarintRoundTripBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := codecs[CodecIVarint]
	for _, shape := range [][2]int{{1, 4}, {3, 5}, {8, 8}, {7, 13}, {33, 9}} {
		for trial := 0; trial < 20; trial++ {
			tile := matrix.New(shape[0], shape[1])
			for i := range tile.Data {
				switch rng.Intn(8) {
				case 0:
					tile.Data[i] = matrix.Inf
				default:
					tile.Data[i] = float64(rng.Intn(1 << 20))
				}
			}
			enc, ok := c.EncodeTile(nil, tile)
			if !ok {
				t.Fatalf("ivarint declined an all-integer %dx%d tile", shape[0], shape[1])
			}
			got, err := c.DecodeTile(enc, shape[0], shape[1])
			if err != nil {
				t.Fatal(err)
			}
			for i := range tile.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(tile.Data[i]) {
					t.Fatalf("value %d: decoded bits %x, want %x", i, math.Float64bits(got.Data[i]), math.Float64bits(tile.Data[i]))
				}
			}
		}
	}
}

// TestIVarintDeclinesNonIntegers: every value outside the exact-integer
// domain declines the whole tile, and encodeTile then stores it raw.
func TestIVarintDeclinesNonIntegers(t *testing.T) {
	for name, v := range map[string]float64{
		"fractional": 1.5,
		"nan":        math.NaN(),
		"neg-inf":    math.Inf(-1),
		"neg-zero":   math.Copysign(0, -1),
		"2^53":       float64(maxExactInt),
		"-2^53":      -float64(maxExactInt),
		"huge":       1e300,
	} {
		tile := matrix.NewZero(4, 4) // all zeros, then poison one value
		tile.Data[9] = v
		if _, ok := codecs[CodecIVarint].EncodeTile(nil, tile); ok {
			t.Errorf("%s: ivarint accepted %v", name, v)
		}
		enc, cid := encodeTile(codecs[CodecIVarint], tile, nil)
		if cid != CodecRaw {
			t.Errorf("%s: encodeTile fell back to codec %d, want raw", name, cid)
		}
		if int64(len(enc)) != matrix.DenseMarshaledSize(4, 4) {
			t.Errorf("%s: raw fallback is %d bytes", name, len(enc))
		}
	}
}

// TestIVarintNotSmallerFallsBackRaw: adversarially alternating between
// 0 and 2^53-1 makes every delta an 8-byte varint, so the encoded form
// cannot beat raw; the encoder must bail and the tile be stored raw.
// (matrix.New fills with +Inf, which ivarint escapes in one byte — the
// zero fill here is what keeps every delta huge.)
func TestIVarintNotSmallerFallsBackRaw(t *testing.T) {
	tile := matrix.NewZero(8, 8)
	for i := range tile.Data {
		if i%2 == 0 {
			tile.Data[i] = float64(maxExactInt - 1)
		}
	}
	_, cid := encodeTile(codecs[CodecIVarint], tile, nil)
	if cid != CodecRaw {
		t.Fatalf("incompressible tile stored with codec %d, want raw", cid)
	}
}

// TestF32ErrorBound: values within the bound round-trip with the
// recorded max relative error; values float32 cannot hold decline.
func TestF32ErrorBound(t *testing.T) {
	c := codecs[CodecF32]
	tile := matrix.New(2, 2)
	tile.Data = []float64{0, 1, 2.5, matrix.Inf}
	enc, ok := c.EncodeTile(nil, tile)
	if !ok {
		t.Fatal("f32 declined exactly-representable values")
	}
	if got := TileMaxRelErr(CodecF32, enc); got != 0 {
		t.Fatalf("recorded max rel err %v, want 0 for exactly-representable values", got)
	}
	got, err := c.DecodeTile(enc, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tile.Data {
		if got.Data[i] != tile.Data[i] && !(math.IsInf(got.Data[i], 1) && math.IsInf(tile.Data[i], 1)) {
			t.Fatalf("value %d: %v, want %v", i, got.Data[i], tile.Data[i])
		}
	}

	// float32 rounding of normal values stays within 2^-24 =~ 6e-8, well
	// inside the 1e-6 default bound — the decline cases are overflow past
	// the float32 range and NaN, where the relative error is unbounded.
	for name, v := range map[string]float64{
		"past-f32-range": 1e300,
		"neg-overflow":   -1e40,
		"nan":            math.NaN(),
	} {
		tile := matrix.New(1, 2)
		tile.Data = []float64{1, v}
		if _, ok := c.EncodeTile(nil, tile); ok {
			t.Errorf("%s: f32 accepted %v", name, v)
		}
	}
}

// TestDecodeTileTypedErrors: corrupt payloads come back as ErrCodecData,
// never a panic, for every codec, and so do codec bytes this build does
// not read.
func TestDecodeTileTypedErrors(t *testing.T) {
	tile := matrix.New(4, 4)
	for i := range tile.Data {
		tile.Data[i] = float64(i * 3)
	}
	for _, id := range []byte{CodecRaw, CodecF32, CodecIVarint} {
		enc, ok := codecs[id].EncodeTile(nil, tile)
		if !ok {
			t.Fatalf("codec %d declined a small integer tile", id)
		}
		for name, data := range map[string][]byte{
			"empty":       nil,
			"truncated":   enc[:len(enc)-1],
			"bad-magic":   append([]byte{0x00}, enc[1:]...),
			"trailing":    append(append([]byte(nil), enc...), 0x01),
			"wrong-shape": enc, // decoded below with the wrong geometry
		} {
			h, w := 4, 4
			if name == "wrong-shape" {
				h, w = 2, 8
			}
			if _, err := decodeTile(id, data, h, w); !errors.Is(err, ErrCodecData) {
				t.Errorf("codec %d %s: err = %v, want ErrCodecData", id, name, err)
			}
		}
	}
	enc, _ := codecs[CodecIVarint].EncodeTile(nil, tile)
	for _, id := range []byte{1, 99} { // the retired ivarint byte, a future one
		if _, err := decodeTile(id, enc, 4, 4); !errors.Is(err, ErrCodecData) {
			t.Errorf("codec byte %d: err = %v, want ErrCodecData", id, err)
		}
	}
}

// TestIVarintDecodeRejectsOutOfRange: a forged stream whose running sum
// walks past 2^53 must fail, not fabricate inexact values — even when the
// forger keeps the restart table consistent.
func TestIVarintDecodeRejectsOutOfRange(t *testing.T) {
	big := float64(maxExactInt - 1)
	tile := matrix.New(1, 4)
	tile.Data = []float64{big, big, big, big} // deltas: +2^53-1, 0, 0, 0
	enc, ok := codecs[CodecIVarint].EncodeTile(nil, tile)
	if !ok {
		t.Fatal("declined in-range values")
	}
	// Replay the first (8-byte) token in place of the second: the running
	// sum 2·(2^53-1) overflows the exact range.
	const hdr = codecHdrLen + 1 + 8 // one restart group
	tok := enc[hdr : len(enc)-3]
	forged := append([]byte(nil), enc[:hdr]...)
	forged = append(append(append(forged, tok...), tok...), 1, 1)
	binary.LittleEndian.PutUint32(forged[codecHdrLen+1:], uint32(len(forged)))
	binary.LittleEndian.PutUint32(forged[codecHdrLen+5:], crc32.Checksum(forged[hdr:], castagnoli))
	if _, err := codecs[CodecIVarint].DecodeTile(forged, 1, 4); !errors.Is(err, ErrCodecData) {
		t.Fatalf("out-of-range forged stream: err = %v, want ErrCodecData", err)
	}
}

// TestWriteWithCodecDifferential is the full-store differential: an
// integer-weight matrix written raw, ivarint and f32 must serve — over
// EVERY row, not samples — bit-identical distances for ivarint and
// error-bounded ones for f32, through tile, span and uncached paths.
func TestWriteWithCodecDifferential(t *testing.T) {
	n, bs := 61, 16 // ragged tiling on purpose
	m := intMatrix(n, 42)
	dir := t.TempDir()
	paths := map[string]string{}
	for _, name := range []string{"raw", "ivarint", "f32"} {
		c, err := CodecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name+".apsp")
		if err := WriteWithCodec(p, m, bs, c); err != nil {
			t.Fatal(err)
		}
		paths[name] = p
	}

	rawSize := fileSize(t, paths["raw"])
	for name, p := range paths {
		if name == "raw" {
			continue
		}
		if got := fileSize(t, p); got >= rawSize {
			t.Errorf("%s store is %d bytes, raw is %d — no shrink", name, got, rawSize)
		}
	}

	for cfg, opts := range map[string]Options{
		"tile-path": {TileCacheBytes: 1 << 20},
		"row-path":  {RowCacheBytes: 1 << 20},
		"uncached":  {},
	} {
		for name, p := range paths {
			s, err := OpenWithOptions(p, opts)
			if err != nil {
				t.Fatal(err)
			}
			if name == "ivarint" {
				if s.CodecRatio() < 2 {
					t.Errorf("ivarint codec ratio %.2f, want >= 2 on an integer store", s.CodecRatio())
				}
				if s.CodecTiles()["ivarint"] == 0 {
					t.Error("ivarint store has no ivarint tiles")
				}
				if s.PreferredCodec().ID() != CodecIVarint {
					t.Errorf("preferred codec %s, want ivarint", s.CodecName())
				}
			}
			ctx := context.Background()
			for i := 0; i < n; i++ {
				row, err := s.Row(ctx, i)
				if err != nil {
					t.Fatalf("%s/%s row %d: %v", name, cfg, i, err)
				}
				for j := 0; j < n; j++ {
					want := m.At(i, j)
					switch name {
					case "raw", "ivarint":
						if math.Float64bits(row[j]) != math.Float64bits(want) {
							t.Fatalf("%s/%s (%d,%d) = %v, want bit-identical %v", name, cfg, i, j, row[j], want)
						}
					case "f32":
						if math.IsInf(want, 1) {
							if !math.IsInf(row[j], 1) {
								t.Fatalf("f32/%s (%d,%d) = %v, want +Inf", cfg, i, j, row[j])
							}
						} else if rel := math.Abs(row[j]-want) / math.Max(math.Abs(want), 1); rel > F32DefaultMaxRelErr {
							t.Fatalf("f32/%s (%d,%d) rel err %v > bound", cfg, i, j, rel)
						}
					}
				}
			}
			s.Close()
		}
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// TestPanelWriterCodecByteIdenticalToWrite: the streaming writer with a
// codec produces the same file as the one-shot writer, byte for byte.
func TestPanelWriterCodecByteIdenticalToWrite(t *testing.T) {
	n, bs := 37, 8
	m := intMatrix(n, 9)
	dir := t.TempDir()
	oneShot := filepath.Join(dir, "oneshot.apsp")
	streamed := filepath.Join(dir, "streamed.apsp")
	c, _ := CodecByName("ivarint")
	if err := WriteWithCodec(oneShot, m, bs, c); err != nil {
		t.Fatal(err)
	}
	w, err := NewPanelWriterWithOptions(streamed, n, bs, PanelWriterOptions{Codec: c})
	if err != nil {
		t.Fatal(err)
	}
	q := (n + bs - 1) / bs
	for bi := 0; bi < q; bi++ {
		base, h := panelRows(n, bs, bi)
		panel := matrix.New(h, n)
		if err := m.ExtractInto(panel, base, 0); err != nil {
			t.Fatal(err)
		}
		if err := w.WritePanel(panel); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(oneShot)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(streamed)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("streamed ivarint store differs from one-shot (%d vs %d bytes)", len(b), len(a))
	}
}

// TestRawPanelCopyCarriesCodec: ReadPanelRaw/WriteRawPanel move encoded
// panels between stores without decoding, preserving per-tile codecs.
func TestRawPanelCopyCarriesCodec(t *testing.T) {
	n, bs := 29, 8
	m := intMatrix(n, 5)
	dir := t.TempDir()
	src := filepath.Join(dir, "src.apsp")
	c, _ := CodecByName("ivarint")
	if err := WriteWithCodec(src, m, bs, c); err != nil {
		t.Fatal(err)
	}
	s, err := OpenWithOptions(src, Options{TileCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	dst := filepath.Join(dir, "dst.apsp")
	w, err := NewPanelWriterWithOptions(dst, n, bs, PanelWriterOptions{Codec: c})
	if err != nil {
		t.Fatal(err)
	}
	var raw []byte
	var metas []TileMeta
	for bi := 0; bi < s.TilesPerSide(); bi++ {
		raw, metas, err = s.ReadPanelRaw(bi, raw)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteRawPanel(raw, metas); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	a, _ := os.ReadFile(src)
	b, _ := os.ReadFile(dst)
	if string(a) != string(b) {
		t.Fatalf("raw-copied store differs from source (%d vs %d bytes)", len(b), len(a))
	}
}

// TestWriteRawPanelRejectsForgedMeta: implausible tile metadata (unknown
// codec, compressed not-smaller-than-raw, wrong CRC) must be refused.
func TestWriteRawPanelRejectsForgedMeta(t *testing.T) {
	n, bs := 16, 8
	m := intMatrix(n, 3)
	src := filepath.Join(t.TempDir(), "src.apsp")
	c, _ := CodecByName("ivarint")
	if err := WriteWithCodec(src, m, bs, c); err != nil {
		t.Fatal(err)
	}
	s, err := OpenWithOptions(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	raw, metas, err := s.ReadPanelRaw(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func([]TileMeta) []TileMeta{
		"unknown-codec": func(ms []TileMeta) []TileMeta { ms[0].Codec = 7; return ms },
		"raw-size-forged": func(ms []TileMeta) []TileMeta {
			ms[0].Codec = CodecRaw // length stays compressed-size != raw size
			return ms
		},
		"bad-crc":    func(ms []TileMeta) []TileMeta { ms[1].CRC ^= 0xFF; return ms },
		"short-meta": func(ms []TileMeta) []TileMeta { return ms[:1] },
	} {
		w, err := NewPanelWriterWithOptions(filepath.Join(t.TempDir(), "dst.apsp"), n, bs, PanelWriterOptions{Codec: c})
		if err != nil {
			t.Fatal(err)
		}
		forged := mutate(append([]TileMeta(nil), metas...))
		if err := w.WriteRawPanel(raw, forged); err == nil {
			t.Errorf("%s: WriteRawPanel accepted forged metadata", name)
		}
		w.Abort()
	}
}

// TestCompressedTileBitFlipQuarantines: a flipped bit inside a
// compressed payload surfaces as ErrCorruptTile on first read and
// quarantines the tile (CRC catches it before the codec even runs).
func TestCompressedTileBitFlipQuarantines(t *testing.T) {
	n, bs := 24, 8
	m := intMatrix(n, 11)
	path := filepath.Join(t.TempDir(), "c.apsp")
	c, _ := CodecByName("ivarint")
	if err := WriteWithCodec(path, m, bs, c); err != nil {
		t.Fatal(err)
	}
	s, err := OpenWithOptions(path, Options{TileCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// Find a compressed tile and flip one payload byte on disk.
	var off int64
	found := false
	for bi := 0; bi < s.TilesPerSide() && !found; bi++ {
		for bj := 0; bj < s.TilesPerSide() && !found; bj++ {
			if s.TileCodec(bi, bj) != CodecRaw {
				o, l, err := s.TileSpan(bi, bj)
				if err != nil {
					t.Fatal(err)
				}
				off = o + l/2
				found = true
			}
		}
	}
	s.Close()
	if !found {
		t.Fatal("integer store has no compressed tile")
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[off] ^= 0x10
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err = OpenWithOptions(path, Options{TileCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sawCorrupt := false
	for i := 0; i < n; i++ {
		if _, err := s.Row(context.Background(), i); err != nil {
			if !errors.Is(err, ErrCorruptTile) {
				t.Fatalf("row %d: err = %v, want ErrCorruptTile", i, err)
			}
			sawCorrupt = true
		}
	}
	if !sawCorrupt || s.Quarantined() != 1 {
		t.Fatalf("sawCorrupt=%v quarantined=%d, want corruption detected and 1 tile quarantined", sawCorrupt, s.Quarantined())
	}
}

// TestCompressedTileFaultInjection: the faultfs variant — a bit flipped
// by the disk on every read of a compressed tile's span is caught by the
// CRC before the codec runs, quarantined without a second disk read, and
// leaves undamaged compressed tiles serving.
func TestCompressedTileFaultInjection(t *testing.T) {
	n, bs := 24, 8
	m := intMatrix(n, 19)
	path := filepath.Join(t.TempDir(), "c.apsp")
	c, _ := CodecByName("ivarint")
	if err := WriteWithCodec(path, m, bs, c); err != nil {
		t.Fatal(err)
	}
	s, fr := openFaulty(t, path, Options{TileCacheBytes: 1 << 20})
	if s.TileCodec(0, 0) != CodecIVarint {
		t.Fatalf("tile (0,0) codec %d, want ivarint on an integer store", s.TileCodec(0, 0))
	}
	ref := s.index[0]
	fr.Inject(faultfs.Fault{
		Kind: faultfs.KindBitFlip, FlipBit: int64(codecHdrLen)*8 + 3,
		OffLo: ref.off, OffHi: ref.off + ref.length,
	})
	ctx := context.Background()
	if _, err := s.Dist(ctx, 0, 0); !errors.Is(err, ErrCorruptTile) {
		t.Fatalf("flipped compressed payload served: err = %v, want ErrCorruptTile", err)
	}
	if s.Quarantined() != 1 {
		t.Fatalf("quarantined = %d, want 1", s.Quarantined())
	}
	readsBefore := fr.Reads()
	if _, err := s.Dist(ctx, 0, 0); !errors.Is(err, ErrCorruptTile) {
		t.Fatalf("second read of quarantined tile: %v", err)
	}
	if fr.Reads() != readsBefore {
		t.Fatal("quarantined compressed tile was re-read from disk")
	}
	row, err := s.Row(ctx, n-1)
	if err != nil {
		t.Fatalf("undamaged row: %v", err)
	}
	if math.Float64bits(row[n-1]) != math.Float64bits(m.At(n-1, n-1)) {
		t.Fatal("undamaged compressed row served wrong data")
	}
}

// TestOpenRejectsForgedCodecEntries: index entries with unknown codec
// bytes or impossible lengths must fail Open with typed errors.
func TestOpenRejectsForgedCodecEntries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.apsp")
	c, _ := CodecByName("ivarint")
	if err := WriteWithCodec(path, intMatrix(16, 2), 8, c); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		want   error
		mutate func([]byte)
	}{
		"unknown-codec": {ErrVersion, func(b []byte) { b[fileHdrLen+20] = 9 }},
		"codec-cleared-to-raw-with-short-len": {ErrMalformed, func(b []byte) {
			b[fileHdrLen+20] = 0 // compressed length now claims to be a raw tile
		}},
	} {
		buf := append([]byte(nil), good...)
		tc.mutate(buf)
		p := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(p, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenWithOptions(p, Options{TileCacheBytes: 1 << 20})
		if err == nil {
			s.Close()
			t.Errorf("%s: forged store opened cleanly", name)
			continue
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want errors.Is(%v)", name, err, tc.want)
		}
	}
}

// FuzzDecodeTile: adversarial payloads through every codec must return
// typed errors or a correctly-shaped block — never panic, never
// allocate beyond the geometry's output size. Codec bytes this build
// does not read (the retired byte 1 among the seeds) must be refused.
func FuzzDecodeTile(f *testing.F) {
	tile := matrix.New(4, 4)
	for i := range tile.Data {
		tile.Data[i] = float64(i)
	}
	tile.Data[5] = matrix.Inf
	for id := byte(0); id < numCodecs; id++ {
		c := codecs[id]
		if c == nil {
			c = codecs[CodecIVarint] // valid bytes under a refused codec byte
		}
		if enc, ok := c.EncodeTile(nil, tile); ok {
			f.Add(id, enc, 4, 4)
			f.Add(id, enc[:len(enc)/2], 4, 4)
			f.Add(id, enc, 2, 8)
		}
	}
	f.Add(byte(1), []byte{0xC2, 4, 0, 0, 0, 4, 0, 0, 0, 0xFF, 0xFF, 0xFF}, 4, 4)
	f.Fuzz(func(t *testing.T, id byte, data []byte, h, w int) {
		if h < 1 || w < 1 || h > 64 || w > 64 {
			t.Skip()
		}
		blk, err := decodeTile(id, data, h, w)
		if err != nil {
			if !errors.Is(err, ErrCodecData) {
				t.Fatalf("decode error not typed: %v", err)
			}
			return
		}
		if checkCodec(id) != nil {
			t.Fatalf("codec byte %d decoded", id)
		}
		if blk.Phantom() || blk.R != h || blk.C != w || len(blk.Data) != h*w {
			t.Fatalf("accepted block has shape %dx%d (phantom=%v), want %dx%d", blk.R, blk.C, blk.Phantom(), h, w)
		}
	})
}

// FuzzCodecRoundTrip: any 2x3 tile of arbitrary float64 bit patterns
// either declines or round-trips bit-exactly through raw and ivarint.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add(uint64(0), uint64(1<<52), uint64(0x7FF0000000000000), uint64(42), uint64(100), uint64(1000))
	f.Add(^uint64(0), uint64(1), uint64(2), uint64(3), uint64(4), uint64(5))
	f.Fuzz(func(t *testing.T, a, b, c, d, e, g uint64) {
		tile := matrix.New(2, 3)
		for i, bits := range []uint64{a, b, c, d, e, g} {
			tile.Data[i] = math.Float64frombits(bits)
		}
		for _, id := range []byte{CodecRaw, CodecIVarint} {
			enc, ok := codecs[id].EncodeTile(nil, tile)
			if !ok {
				continue
			}
			got, err := codecs[id].DecodeTile(enc, 2, 3)
			if err != nil {
				t.Fatalf("codec %d rejected its own encoding: %v", id, err)
			}
			for i := range tile.Data {
				gb, wb := math.Float64bits(got.Data[i]), math.Float64bits(tile.Data[i])
				// Raw marshalling preserves NaN payloads too; ivarint never
				// accepts NaN, so accepted tiles must match exactly.
				if gb != wb {
					t.Fatalf("codec %d value %d: bits %x, want %x", id, i, gb, wb)
				}
			}
		}
	})
}

// encodeIVarintOracle is the ivarint encoder as it stood before its fast
// path, kept verbatim: one set of checks for every value, the size test
// after each. The shipped encoder must produce its bytes.
func encodeIVarintOracle(c ivarintCodec, dst []byte, tile *matrix.Block) ([]byte, bool) {
	h, w := tile.R, tile.C
	rawSize := matrix.DenseMarshaledSize(h, w)
	if c.k == 0 || rawSize > math.MaxUint32 {
		return dst, false // group offsets are uint32
	}
	start := len(dst)
	groups := (h + c.k - 1) / c.k
	dst = append(putCodecHeader(dst, magicIVarint, h, w), byte(c.k))
	table := len(dst)
	dst = append(dst, make([]byte, 8*groups)...)
	for g := 0; g < groups; g++ {
		from := len(dst)
		prev := int64(0)
		for _, v := range tile.Data[g*c.k*w : min(h, (g+1)*c.k)*w] {
			if math.IsInf(v, 1) {
				dst = append(dst, 0)
			} else {
				if v != math.Trunc(v) || v <= float64(-maxExactInt) || v >= float64(maxExactInt) ||
					(v == 0 && math.Signbit(v)) {
					return dst, false
				}
				iv := int64(v)
				d := iv - prev
				dst = binary.AppendUvarint(dst, uint64((d<<1)^(d>>63))+1)
				prev = iv
			}
			if int64(len(dst)-start) >= rawSize {
				return dst, false // not getting smaller; store raw
			}
		}
		binary.LittleEndian.PutUint32(dst[table+8*g:], uint32(len(dst)-start))
		binary.LittleEndian.PutUint32(dst[table+8*g+4:], crc32.Checksum(dst[from:], castagnoli))
	}
	return dst, true
}

// requireEncodesAsOracle fails unless the ivarint encoder and its oracle
// agree on whether tile is accepted and, if it is, on every byte — behind
// a prefix, as PanelWriter appends tiles to one buffer.
func requireEncodesAsOracle(t *testing.T, tile *matrix.Block) {
	t.Helper()
	c := codecs[CodecIVarint].(ivarintCodec)
	prefix := []byte("prefix")
	got, gotOK := c.EncodeTile(bytes.Clone(prefix), tile)
	want, wantOK := encodeIVarintOracle(c, bytes.Clone(prefix), tile)
	if gotOK != wantOK || (gotOK && !bytes.Equal(got, want)) {
		t.Fatalf("%dx%d tile: encoder accepted=%v with %d bytes, oracle accepted=%v with %d bytes; bytes equal: %v",
			tile.R, tile.C, gotOK, len(got), wantOK, len(want), bytes.Equal(got, want))
	}
}

// requireIntsEncodeAsOracle fails unless the integer encoder, reading an
// h x w tile of cells (cycled) out of a panel three columns wider,
// accepts or declines it as the oracle does the same values as float64
// (NoPath32 as +Inf), to the same bytes behind a prefix.
func requireIntsEncodeAsOracle(t *testing.T, cells []uint32, h, w int) {
	t.Helper()
	stride, c0 := w+3, 2
	panel := make([]uint32, h*stride)
	for i := range panel {
		panel[i] = 0xDEAD // junk the tile must not pick up
	}
	tile := matrix.New(h, w)
	for r := 0; r < h; r++ {
		for j := 0; j < w; j++ {
			v := cells[(r*w+j)%len(cells)]
			panel[r*stride+c0+j] = v
			tile.Data[r*w+j] = matrix.Recast[float64](v)
		}
	}
	c := codecs[CodecIVarint].(ivarintCodec)
	prefix := []byte("prefix")
	got, gotOK := c.appendInts(bytes.Clone(prefix), h, w, func(r int) ([]uint32, int) { return panel[r*stride+c0:], 1 })
	want, wantOK := encodeIVarintOracle(c, bytes.Clone(prefix), tile)
	if gotOK != wantOK || (gotOK && !bytes.Equal(got, want)) {
		t.Fatalf("%dx%d integer tile: encoder accepted=%v with %d bytes, oracle accepted=%v with %d bytes; bytes equal: %v",
			h, w, gotOK, len(got), wantOK, len(want), bytes.Equal(got, want))
	}
}

// TestIVarintEncodeMatchesOracle holds the encoder's fast path to the
// bytes of the loop it replaced, over the tiles the other codec tests are
// built from: distance-like matrices, wide random integers with +Inf, one
// value of every kind the domain check exists for, and the tile that does
// not get smaller.
func TestIVarintEncodeMatchesOracle(t *testing.T) {
	for _, n := range []int{1, 7, 16, 17, 64, 100} {
		requireEncodesAsOracle(t, intMatrix(n, int64(n)))
	}
	rng := rand.New(rand.NewSource(7))
	for _, shape := range [][2]int{{1, 4}, {3, 5}, {8, 8}, {7, 13}, {33, 9}, {40, 300}} {
		for trial := 0; trial < 20; trial++ {
			tile := matrix.New(shape[0], shape[1])
			for i := range tile.Data {
				if rng.Intn(8) != 0 {
					tile.Data[i] = float64(rng.Int63n(1 << (1 + rng.Intn(53))))
				}
			}
			requireEncodesAsOracle(t, tile)
		}
	}
	for _, v := range []float64{0, 1, 63, 64, 65, -1, -64, 1.5, math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
		float64(maxExactInt - 1), float64(maxExactInt), -float64(maxExactInt - 1), -float64(maxExactInt), 1e300, -1e300,
		math.MaxInt64, math.MinInt64, math.SmallestNonzeroFloat64} {
		for _, fill := range []float64{0, 40, matrix.Inf} {
			tile := matrix.New(4, 4)
			for i := range tile.Data {
				tile.Data[i] = fill
			}
			tile.Data[9] = v
			requireEncodesAsOracle(t, tile)
		}
	}
	// The integer encoder, over the same shapes, from a 1x1 tile it
	// declines to wide ones with no-path cells and multi-byte tokens.
	for _, shape := range [][2]int{{1, 1}, {1, 4}, {3, 5}, {16, 16}, {17, 9}, {40, 300}} {
		cells := make([]uint32, shape[0]*shape[1])
		for i := range cells {
			switch rng.Intn(8) {
			case 0:
				cells[i] = matrix.NoPath32
			case 1:
				cells[i] = rng.Uint32()
			default:
				cells[i] = uint32(rng.Intn(300))
			}
		}
		requireIntsEncodeAsOracle(t, cells, shape[0], shape[1])
	}
	incompressible := matrix.NewZero(8, 8)
	for i := 0; i < len(incompressible.Data); i += 2 {
		incompressible.Data[i] = float64(maxExactInt - 1)
	}
	requireEncodesAsOracle(t, incompressible)
	// Small enough only until its last rows: the size test is per row now.
	late := matrix.NewZero(32, 8)
	for i := len(late.Data) - 24; i < len(late.Data); i += 2 {
		late.Data[i] = float64(maxExactInt - 1)
	}
	requireEncodesAsOracle(t, late)
}

// FuzzIVarintEncodeMatchesOracle: any 2x3 tile of arbitrary float64 bit
// patterns is accepted or declined as the oracle does, to the same bytes;
// so is every tile the integer encoder reads out of a panel from the low
// 32 bits of the same input — no-path cells, tokens of one byte and more,
// and the 1x1 tile it declines as not smaller than raw.
func FuzzIVarintEncodeMatchesOracle(f *testing.F) {
	f.Add(uint64(0), uint64(1<<52), uint64(0x7FF0000000000000), uint64(42), uint64(100), uint64(1000))
	f.Add(^uint64(0), uint64(1), uint64(2), uint64(3), uint64(4), uint64(5))
	f.Add(math.Float64bits(7), math.Float64bits(70), math.Float64bits(71), math.Float64bits(1<<53), math.Float64bits(-3), math.Float64bits(2.5))
	f.Add(uint64(0xFFFFFFFF), uint64(7), uint64(0x80), uint64(1<<31), uint64(0xFFFFFFFE), uint64(0))
	f.Fuzz(func(t *testing.T, a, b, c, d, e, g uint64) {
		vals := []uint64{a, b, c, d, e, g}
		tile := matrix.New(2, 3)
		for i, bits := range vals {
			tile.Data[i] = math.Float64frombits(bits)
		}
		requireEncodesAsOracle(t, tile)
		cells := make([]uint32, len(vals))
		for i, v := range vals {
			cells[i] = uint32(v)
		}
		for _, shape := range [][2]int{{2, 3}, {3, 2}, {1, 6}, {6, 1}, {1, 1}} {
			requireIntsEncodeAsOracle(t, cells, shape[0], shape[1])
		}
	})
}

// decodeIVarintOracle is the ivarint group decoder as it stood before its
// word step, kept verbatim: one token per iteration, one-byte tokens by
// table, every other through binary.Uvarint. The shipped decoder must
// return its values, byte count and error class.
func decodeIVarintOracle[C matrix.Cell](group []byte, sum uint32, skip int, dst []C) (int, error) {
	if got := crc32.Checksum(group, castagnoli); got != sum {
		return 0, fmt.Errorf("%w: restart group checksum %08x, table says %08x", ErrCodecData, got, sum)
	}
	lo, hi, none := -maxExactInt, maxExactInt, matrix.NoPath[C]()
	if unsafe.Sizeof(none) == 4 {
		lo, hi = -1, matrix.NoPath32
	}
	pos, prev := 0, int64(0)
	for i := -skip; i < len(dst); i++ {
		var tok uint64
		if pos < len(group) && group[pos] < 0x80 {
			tok = uint64(group[pos])
			pos++
			if i < 0 {
				prev += int64(ivarintDelta[tok])
				continue
			}
		} else {
			var n int
			if tok, n = binary.Uvarint(group[pos:]); n <= 0 {
				return 0, fmt.Errorf("%w: ivarint stream ends %d values early", ErrCodecData, len(dst)-i)
			}
			pos += n
		}
		if tok > 0 {
			u := tok - 1
			prev += int64(u>>1) ^ -int64(u&1)
		}
		if i < 0 {
			continue
		}
		if tok == 0 {
			dst[i] = none
		} else if prev <= lo || prev >= hi {
			return 0, fmt.Errorf("%w: ivarint value %d out of the cell's exact range", ErrCodecData, prev)
		} else {
			dst[i] = C(prev)
		}
	}
	return pos, nil
}

// requireDecodesAsOracle fails unless decodeIVarintGroup and its oracle,
// skipping skip values of group and decoding n as uint32 and as float64
// cells, agree on the byte count, on nil vs ErrCodecData and, on success,
// on every value's bits. A wrong sum is the group's checksum plus one.
func requireDecodesAsOracle(t testing.TB, group []byte, skip, n int, badSum bool) {
	t.Helper()
	sum := crc32.Checksum(group, castagnoli)
	if badSum {
		sum++
	}
	requireCellsDecodeAsOracle[uint32](t, group, sum, skip, n)
	requireCellsDecodeAsOracle[float64](t, group, sum, skip, n)
}

func requireCellsDecodeAsOracle[C matrix.Cell](t testing.TB, group []byte, sum uint32, skip, n int) {
	t.Helper()
	got, want := make([]C, n), make([]C, n)
	gotUsed, gotErr := decodeIVarintGroup(group, sum, skip, got)
	wantUsed, wantErr := decodeIVarintOracle(group, sum, skip, want)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && !errors.Is(gotErr, ErrCodecData)) || gotUsed != wantUsed {
		t.Fatalf("%T cells, %d-byte group %x, skip %d, decode %d: used %d err %v, oracle used %d err %v",
			got[:0], len(group), group, skip, n, gotUsed, gotErr, wantUsed, wantErr)
	}
	if gotErr != nil {
		return
	}
	for i := range got {
		if math.Float64bits(matrix.Recast[float64](got[i])) != math.Float64bits(matrix.Recast[float64](want[i])) {
			t.Fatalf("%T cells, %d-byte group %x, skip %d, decode %d: value %d = %v, oracle %v",
				got[:0], len(group), group, skip, n, i, got[i], want[i])
		}
	}
}

// ivarintTokens is the token stream of the deltas between successive
// values of vals, matrix.Inf as the escape, as the encoder writes it.
func ivarintTokens(vals ...float64) []byte {
	var out []byte
	prev := int64(0)
	for _, v := range vals {
		if math.IsInf(v, 1) {
			out = append(out, 0)
			continue
		}
		out = appendIVarintToken(out, int64(v)-prev)
		prev = int64(v)
	}
	return out
}

// TestIVarintDecodeMatchesOracle holds the word step of the group decoder
// to the scalar loop it sits in front of, for uint32 and float64 cells:
// every skip from 0 to 17, around each multiple of 8 and the whole group;
// an escape and a longer token at each position of a word, skipped and
// decoded; values on each side of both cell types' range edges, reached
// inside a word; groups cut mid-word; a bad checksum; random groups.
func TestIVarintDecodeMatchesOracle(t *testing.T) {
	// 64 values of one-byte tokens: deltas of both signs, nearly every
	// token value, never below 0.
	vals := []float64{63}
	for i := 1; i < 64; i++ {
		d := float64((i*37)%127 - 63)
		if vals[i-1]+d < 0 {
			d = -d
		}
		vals = append(vals, vals[i-1]+d)
	}
	group := ivarintTokens(vals...)
	skips := []int{}
	for s := 0; s <= 17; s++ {
		skips = append(skips, s)
	}
	for k := 3; k*8 <= len(vals); k++ {
		skips = append(skips, 8*k-1, 8*k, min(8*k+1, len(vals)))
	}
	for _, skip := range skips {
		for _, n := range []int{0, 1, 7, 8, 9, 16, len(vals) - skip} {
			requireDecodesAsOracle(t, group, skip, min(n, len(vals)-skip), false)
		}
		requireDecodesAsOracle(t, group, skip, len(vals)-skip+1, false) // one value short
	}
	requireDecodesAsOracle(t, group, len(vals), 0, false) // skip the whole group

	// An escape, a two-byte and a ten-byte token at each of the eight
	// positions of the second word, under a skip and under a decode.
	for p := 0; p < 8; p++ {
		for _, special := range [][]byte{{0}, appendIVarintToken(nil, 1000), appendIVarintToken(nil, -(1 << 60))} {
			g := append(append(append([]byte(nil), group[:8+p]...), special...), group[8+p:]...)
			for _, skip := range []int{0, 3, 8, 16, 24} {
				for _, n := range []int{1, 8, 16, len(vals) + 1 - skip} {
					requireDecodesAsOracle(t, g, skip, n, false)
				}
			}
		}
	}

	// Range edges, each reached one delta at a time inside a word of
	// one-byte tokens: uint32 0 and NoPath32−1 are in, −1 and NoPath32
	// out; float64 ±(2^53−1) in, ±2^53 out.
	for _, edge := range []float64{0, matrix.NoPath32 - 1, float64(maxExactInt - 1), -float64(maxExactInt - 1)} {
		for _, dir := range []float64{-1, 1} {
			for off := 0; off < 12; off++ {
				// Start off+4 steps inside the edge and walk 16 steps out.
				start := edge - dir*float64(off+4)
				edgeVals := []float64{start}
				for j := 1; j <= 16; j++ {
					edgeVals = append(edgeVals, start+dir*float64(j))
				}
				g := ivarintTokens(edgeVals...)
				for _, skip := range []int{0, 1, 9} {
					requireDecodesAsOracle(t, g, skip, len(edgeVals)-skip, false)
				}
			}
		}
	}

	// Cut mid-word, and the wrong checksum.
	for cut := len(group) - 9; cut < len(group); cut++ {
		for _, skip := range []int{0, 8, cut - 8} {
			requireDecodesAsOracle(t, group[:cut], skip, len(vals)-skip, false)
		}
	}
	requireDecodesAsOracle(t, group, 0, len(vals), true)
	requireDecodesAsOracle(t, group, 16, 8, true)

	// Random groups: runs of one-byte deltas broken by escapes, longer
	// tokens and jumps out of range; random skips and lengths.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		var g []byte
		count := 1 + rng.Intn(200)
		for range count {
			switch r := rng.Intn(40); {
			case r == 0:
				g = append(g, 0)
			case r == 1:
				g = appendIVarintToken(g, rng.Int63n(1<<40)-1<<39)
			case r == 2:
				g = appendIVarintToken(g, int64(rng.Intn(2000))-1000)
			default:
				g = append(g, byte(1+rng.Intn(127)))
			}
		}
		skip := rng.Intn(count + 1)
		n := count - skip
		switch rng.Intn(4) {
		case 0:
			n = rng.Intn(n + 1)
		case 1:
			n++
		}
		requireDecodesAsOracle(t, g, skip, n, false)
	}
}

// FuzzIVarintDecodeMatchesOracle: any group bytes, skip and length decode
// as the oracle does, for both cell types — including groups the encoder
// never writes (overlong and overflowing varints, runaway sums).
func FuzzIVarintDecodeMatchesOracle(f *testing.F) {
	f.Add([]byte{3, 1, 1, 1}, uint16(0), uint16(4), false)
	f.Add(ivarintTokens(40, 41, 39, 100, 99, matrix.Inf, 98, 97, 96, 95, 96, 97, 98, 99, 100, 101, 102), uint16(3), uint16(14), false)
	f.Add(bytes.Repeat([]byte{0x7F}, 40), uint16(16), uint16(24), false)
	f.Add(bytes.Repeat([]byte{0x02}, 40), uint16(0), uint16(40), false)
	f.Add(append(appendIVarintToken(nil, matrix.NoPath32-6), bytes.Repeat([]byte{3}, 16)...), uint16(0), uint16(17), false)
	f.Add(append(appendIVarintToken(nil, maxExactInt-3), bytes.Repeat([]byte{3}, 16)...), uint16(1), uint16(16), false)
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 0x81, 0x00, 1, 1, 1, 1, 1, 1, 1, 1}, uint16(0), uint16(16), false)
	f.Add(bytes.Repeat([]byte{0xFF}, 12), uint16(0), uint16(1), false)
	f.Add(bytes.Repeat([]byte{5}, 16), uint16(8), uint16(8), true)
	f.Fuzz(func(t *testing.T, group []byte, skip, n uint16, badSum bool) {
		if int(skip)+int(n) > 4*len(group)+16 {
			t.Skip()
		}
		requireDecodesAsOracle(t, group, int(skip), int(n), badSum)
	})
}

// forgeIVarint assembles a restart-layout payload from raw token bytes,
// one slice per restart group, with a consistent table — the shapes the
// encoder declines (a 1x1 tile is not smaller than raw) and the starting
// point of the forged-table cases.
func forgeIVarint(k, h, w int, groups ...[]byte) []byte {
	out := append(putCodecHeader(nil, magicIVarint, h, w), byte(k))
	end := len(out) + 8*len(groups)
	var tokens []byte
	for _, g := range groups {
		end += len(g)
		out = binary.LittleEndian.AppendUint32(out, uint32(end))
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(g, castagnoli))
		tokens = append(tokens, g...)
	}
	return append(out, tokens...)
}

// TestDecodeRowMatchesDecodeTile is the row-method differential: for
// every codec (ivarint at several restart intervals) and
// tiles with +Inf, negative values and deltas, ragged shapes, h not a
// multiple of k, h < k and 1x1, every row decoded from its own span
// equals the same row of DecodeTile, bit for bit.
func TestDecodeRowMatchesDecodeTile(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	type payload struct {
		name string
		c    Codec
		data []byte
	}
	for _, shape := range [][2]int{{1, 1}, {3, 5}, {5, 40}, {16, 16}, {17, 9}, {33, 7}, {40, 40}} {
		h, w := shape[0], shape[1]
		tile := matrix.New(h, w)
		for i := range tile.Data {
			switch rng.Intn(6) {
			case 0:
				tile.Data[i] = matrix.Inf
			case 1:
				tile.Data[i] = -float64(rng.Intn(1 << 30))
			default:
				tile.Data[i] = float64(rng.Intn(300))
			}
		}
		var cases []payload
		for _, c := range []Codec{rawCodec{}, f32Codec{MaxRelErr: 1}, ivarintCodec{k: 1}, ivarintCodec{k: 3}, ivarintCodec{k: 16}, ivarintCodec{k: 255}} {
			if enc, ok := c.EncodeTile(nil, tile); ok {
				cases = append(cases, payload{fmt.Sprintf("%s%+v", c.Name(), c), c, enc})
			} else if h*w > 1 {
				t.Fatalf("%dx%d: %s %v declined", h, w, c.Name(), c)
			}
		}
		if h*w == 1 { // the encoder declines: not smaller than raw
			tok := binary.AppendUvarint(nil, 0)
			if v := tile.Data[0]; !math.IsInf(v, 1) {
				tok = binary.AppendUvarint(nil, uint64((int64(v)<<1)^(int64(v)>>63))+1)
			}
			cases = append(cases, payload{"ivarint/forged-1x1", ivarintCodec{k: 16}, forgeIVarint(16, 1, 1, tok)})
		}
		for _, pc := range cases {
			want, err := pc.c.DecodeTile(pc.data, h, w)
			if err != nil {
				t.Fatalf("%dx%d %s: DecodeTile: %v", h, w, pc.name, err)
			}
			if pc.c.ID() != CodecF32 {
				for i := range tile.Data {
					if math.Float64bits(want.Data[i]) != math.Float64bits(tile.Data[i]) {
						t.Fatalf("%dx%d %s: DecodeTile value %d = %v, want %v", h, w, pc.name, i, want.Data[i], tile.Data[i])
					}
				}
			}
			table, err := pc.c.RowTable(pc.data, h, w)
			if err != nil {
				t.Fatalf("%dx%d %s: RowTable: %v", h, w, pc.name, err)
			}
			dst := make([]float64, w)
			for r := 0; r < h; r++ {
				off, n := pc.c.RowSpan(table, w, r)
				if off < 0 || n < 0 || off+n > len(pc.data) {
					t.Fatalf("%dx%d %s row %d: span [%d,+%d) outside %d bytes", h, w, pc.name, r, off, n, len(pc.data))
				}
				span := append([]byte(nil), pc.data[off:off+n]...) // nothing but the span is reachable
				if err := pc.c.DecodeRow(table, span, r, dst); err != nil {
					t.Fatalf("%dx%d %s row %d: %v", h, w, pc.name, r, err)
				}
				for j, v := range dst {
					if math.Float64bits(v) != math.Float64bits(want.At(r, j)) {
						t.Fatalf("%dx%d %s (%d,%d) = %v, DecodeTile says %v", h, w, pc.name, r, j, v, want.At(r, j))
					}
				}
			}
		}
	}
}

// TestRowTableRejectsForgedTables: restart tables that run backwards,
// leave the payload, cut a group shorter than its value count or claim a
// zero interval are refused before any row is decoded, and a table that
// points mid-token (consistent lengths, wrong bytes) fails the group
// checksum instead of yielding values.
func TestRowTableRejectsForgedTables(t *testing.T) {
	g := []byte{3, 1, 1, 1} // 4 one-byte tokens: 1, 1, 1, 1
	good := forgeIVarint(2, 4, 2, g, g)
	c := ivarintCodec{k: 2}
	if _, err := c.DecodeTile(good, 4, 2); err != nil {
		t.Fatalf("well-formed forged tile rejected: %v", err)
	}
	const table = codecHdrLen + 1
	for name, mutate := range map[string]func([]byte) []byte{
		"zero-interval":  func(b []byte) []byte { b[codecHdrLen] = 0; return b },
		"wrong-interval": func(b []byte) []byte { b[codecHdrLen] = 4; return b },
		"out-of-order": func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[table:], uint32(len(b)))
			binary.LittleEndian.PutUint32(b[table+8:], uint32(len(b)-4))
			return b
		},
		"out-of-bounds": func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[table+8:], uint32(len(b)+1))
			return b
		},
		"short-group": func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[table:], uint32(table+16+3))
			return b
		},
		"trailing":        func(b []byte) []byte { return append(b, 1) },
		"truncated-table": func(b []byte) []byte { return b[:table+12] },
	} {
		if _, err := c.RowTable(mutate(append([]byte(nil), good...)), 4, 2); !errors.Is(err, ErrCodecData) {
			t.Errorf("%s: RowTable err = %v, want ErrCodecData", name, err)
		}
	}
	// Mid-token: a two-byte token straddles the claimed group boundary.
	// Lengths stay plausible, so only the checksum can tell.
	straddle := forgeIVarint(2, 4, 2, []byte{3, 1, 1, 0x81}, []byte{0x01, 1, 1, 1, 1})
	table2, err := c.RowTable(straddle, 4, 2)
	if err != nil {
		t.Fatalf("plausible lengths refused: %v", err)
	}
	dst := make([]float64, 2)
	off, n := c.RowSpan(table2, 2, 1)
	if err := c.DecodeRow(table2, straddle[off:off+n], 1, dst); !errors.Is(err, ErrCodecData) {
		t.Fatalf("row ending mid-token: err = %v, want ErrCodecData", err)
	}
	off, n = c.RowSpan(table2, 2, 3)
	if err := c.DecodeRow(table2, straddle[off+1:off+n], 3, dst); !errors.Is(err, ErrCodecData) {
		t.Fatalf("group entered mid-token: err = %v, want ErrCodecData (checksum)", err)
	}
}

// FuzzDecodeRow: arbitrary payload bytes through every codec's row
// methods. RowTable must return a typed error or a table whose every
// span lies inside the payload; DecodeRow on exactly that span must
// return a typed error or the row DecodeTile gives — never panic, never
// reach outside the span, never allocate. Codec bytes this build does
// not read (the retired byte 1 among the seeds) must be refused.
func FuzzDecodeRow(f *testing.F) {
	tile := matrix.New(5, 4)
	for i := range tile.Data {
		tile.Data[i] = float64(i * 7 % 11)
	}
	tile.Data[6] = matrix.Inf
	for id := byte(0); id < numCodecs; id++ {
		c := codecs[id]
		if c == nil {
			c = codecs[CodecIVarint] // valid bytes under a refused codec byte
		}
		if enc, ok := c.EncodeTile(nil, tile); ok {
			f.Add(id, enc, 5, 4)
			f.Add(id, enc[:len(enc)-2], 5, 4)
		}
	}
	g := []byte{3, 1, 1, 1}
	f.Add(CodecIVarint, forgeIVarint(2, 4, 2, g, g), 4, 2)
	f.Add(CodecIVarint, forgeIVarint(2, 4, 2, []byte{3, 1, 1, 0x81}, []byte{0x01, 1, 1, 1, 1}), 4, 2)
	swapped := forgeIVarint(2, 4, 2, g, g)
	copy(swapped[codecHdrLen+1:], swapped[codecHdrLen+9:codecHdrLen+17]) // out of order
	f.Add(CodecIVarint, swapped, 4, 2)
	f.Fuzz(func(t *testing.T, id byte, data []byte, h, w int) {
		if h < 1 || w < 1 || h > 64 || w > 64 || id >= numCodecs {
			t.Skip()
		}
		c := codecs[id]
		if c == nil {
			if _, err := decodeTile(id, data, h, w); !errors.Is(err, ErrCodecData) {
				t.Fatalf("codec byte %d: err = %v, want ErrCodecData", id, err)
			}
			return
		}
		table, err := c.RowTable(data, h, w)
		if err != nil {
			if !errors.Is(err, ErrCodecData) {
				t.Fatalf("RowTable error not typed: %v", err)
			}
			return
		}
		whole, wholeErr := c.DecodeTile(data, h, w)
		dst := make([]float64, w)
		for r := 0; r < h; r++ {
			off, n := c.RowSpan(table, w, r)
			if off < 0 || n < 0 || off+n > len(data) {
				t.Fatalf("row %d span [%d,+%d) outside %d bytes", r, off, n, len(data))
			}
			span := append([]byte(nil), data[off:off+n]...)
			var err error
			if allocs := testing.AllocsPerRun(1, func() { err = c.DecodeRow(table, span, r, dst) }); err == nil && allocs != 0 {
				t.Fatalf("row %d decode allocates %v times", r, allocs)
			}
			if err != nil {
				if !errors.Is(err, ErrCodecData) {
					t.Fatalf("DecodeRow error not typed: %v", err)
				}
				continue
			}
			if wholeErr != nil {
				continue // the tile is bad elsewhere; this row's group was intact
			}
			for j, v := range dst {
				if math.Float64bits(v) != math.Float64bits(whole.At(r, j)) {
					t.Fatalf("(%d,%d) = %v, DecodeTile says %v", r, j, v, whole.At(r, j))
				}
			}
		}
	})
}
