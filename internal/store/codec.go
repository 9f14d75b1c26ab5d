// Per-tile compression codecs: store format v3.
//
// Every serving bottleneck the benches measure is byte-bound — cold row
// latency is tile IO, effective page-cache capacity is file bytes — so
// each tile chooses how its payload is encoded. Its 24-byte index entry
// carries a codec byte, and a Codec is that byte: every per-codec decision
// is one switch on it in this file (its name, whether this build reads it,
// encode with the raw fallback, whole-tile decode, row table, row span and
// row decode):
//
//   - raw (id 0, the zero Codec): the tile's matrix.Marshal bytes. Always
//     available, always correct, the fallback every other codec declines
//     into.
//   - ivarint (id 3): zigzag-delta + uvarint over the integer view of the
//     values, with +Inf as an escape token. Exact — a tile is only
//     encoded this way when every value is a non-negative-zero integer
//     with |v| < 2^53 (so float64 holds it exactly; the dij differential
//     suite proves integer path sums stay in that range), and decode
//     reproduces the identical float64 bits. Tiles with any non-integral,
//     NaN, -Inf or too-large value are stored raw instead. On
//     integer-weight graphs, distance rows are small monotone-ish
//     integers whose deltas fit 1-2 varint bytes: 4-8x denser than raw.
//   - f32 (id 2): lossy float32 downcast, opt-in only. The encoder
//     measures the worst relative error of the round trip and declines
//     the tile (falling back to raw) when it exceeds F32DefaultMaxRelErr;
//     the observed maximum is recorded in the tile header so a reader
//     can report it. Never the default: it trades exactness for 2x.
//
// A codec's encoded form is only used when it is strictly smaller than
// raw, so "compressed tile no larger than its raw size" is a format
// invariant Open enforces on every v3 index entry.
//
// Each codec has one encoder (appendRaw, appendIVarint, appendF32) and one
// decoder (decodeRawRun, decodeIVarintRun, decodeF32Run), generic over the
// cell type: float64 and uint32 cells (matrix.NoPath32 as +Inf) are
// encoded where they lie (tileRows) and decoded by row or by tile
// (decodeCells), to and from the same bytes; what each type holds is
// decided per type at compile time. appendCells, the one encode under a
// store's tiles, decides the raw fallback.
//
// ivarint's encoder and decoder each put a word step in front of their
// scalar loop, which stays the one body for everything the step leaves to
// it and for every platform without it. A word is eight cells whose tokens
// are all one byte. Where internal/matrix runs AVX2 (matrix.HasAVX2, the
// one CPU check; build tags amd64 && !purego), the encoder tokenizes a
// word of uint32 cells — a row, or a lane-ordered tile's column gathered
// at its lane stride — or of contiguous integral float64 cells in a few
// vector instructions, and the decoder expands a word of tokens into
// eight uint32 cells the same way (codec_amd64.s); the decoder's word step
// for float64 cells, for skipped tokens and on other platforms is Go
// arithmetic on the eight bytes of a uint64. Either way a step writes what
// the scalar loop would, and the fuzzers hold it to oracles kept from
// before it.
//
// Every codec is row-addressable: rowTable/rowSpan/decodeRow locate and
// decode one row from a few KB of the payload, so a cold row never
// decodes whole tiles. Raw and f32 rows sit at fixed offsets. An ivarint
// tile (id 3) cuts its rows into restart groups of k rows — the delta
// predecessor restarts at 0 at each group — behind a table of them:
//
//	[0]      magic 0xC4
//	[1:9]    uint32 h, uint32 w
//	[9]      k (ivarintRestartRows when written here; any 1..255 reads)
//	[10:...] ceil(h/k) entries {uint32 end, uint32 crc32c}: group g's
//	         tokens run from where group g-1 ended (the first from the
//	         end of this table) to payload offset end, and hash to crc32c
//	[...]    the tokens, row-major
//
// Row r costs one pread of its group, a CRC, a skip of (r mod k)*w tokens
// and a decode of w. The group CRC is what lets a variable-length stream
// be read in pieces: a flipped bit in a delta chain would corrupt every
// later value of the group, not one. A whole tile is read against the
// tile's own CRC32C (checkTile) and its groups are not hashed again; the
// writer hashes each group as it closes it and the tile once it is whole:
// deriving the tile's sum from the group sums (CRC combination, which
// hash/crc32 lacks) costs per group about what hashing a group of 16 rows
// again at the CPU's CRC32C speed does. Byte 1 named an earlier ivarint
// layout (one delta chain over the whole tile, no table); nothing has
// written it since restart groups, and this build refuses it with
// ErrVersion wherever a codec byte comes in: Open, checkpoint resume and
// WriteRawPanel.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"unsafe"

	"apspark/internal/matrix"
)

// Codec is a tile codec: the byte a v3 index entry records for its
// payload. The zero value is raw.
type Codec byte

// The codecs this build writes and reads.
const (
	// CodecRaw stores the tile's matrix.Marshal bytes unchanged.
	CodecRaw Codec = 0
	// CodecF32 stores an error-bounded float32 downcast.
	CodecF32 Codec = 2
	// CodecIVarint stores zigzag-delta + uvarint over integer values in
	// row-addressable restart groups. It has its own byte so a build that
	// predates the layout refuses the store at Open (ErrVersion) instead
	// of quarantining its tiles one by one.
	CodecIVarint Codec = 3

	// numCodecs bounds the codec bytes; byte 1 is retired (see above).
	numCodecs = 4
)

// F32DefaultMaxRelErr is the per-value relative-error bound of the f32
// codec: any tile whose float32 round trip would exceed it is stored raw
// instead. float32 rounding is at worst 2^-24 =~ 6e-8 relative, so the
// bound leaves an order-of-magnitude margin while still rejecting values
// outside float32 range (which round-trip to +Inf, an infinite relative
// error).
const F32DefaultMaxRelErr = 1e-6

// ErrCodecData means an encoded tile's bytes are not a valid stream for
// the codec the index claims (truncated, trailing garbage, or values
// outside the codec's domain). Store reads wrap it in ErrCorruptTile and
// quarantine the tile.
var ErrCodecData = errors.New("store: malformed encoded tile")

// rowTable is what must be remembered of a tile's header to address its
// rows: rows come in groups of k, group g ends at payload offset
// ends[g] (and starts where group g-1 ended, the first at base) and its
// bytes hash to sums[g]. Fixed-width codecs need none of it and share
// fixedRows.
type rowTable struct {
	k, base    int
	ends, sums []uint32
}

var fixedRows = &rowTable{}

// group returns the byte range and checksum of the restart group holding
// row r.
func (t *rowTable) group(r int) (from, to int, sum uint32) {
	g := r / t.k
	from = t.base
	if g > 0 {
		from = int(t.ends[g-1])
	}
	return from, int(t.ends[g]), t.sums[g]
}

// Name is the codec's stable CLI and metrics name ("raw", "ivarint",
// "f32"); a byte this build does not read is named by its number.
func (c Codec) Name() string {
	switch c {
	case CodecRaw:
		return "raw"
	case CodecF32:
		return "f32"
	case CodecIVarint:
		return "ivarint"
	}
	return fmt.Sprintf("codec %d", byte(c))
}

// checkCodec refuses, with ErrVersion, a codec byte this build does not
// read: a future codec, or the retired byte 1.
func checkCodec(c Codec) error {
	switch c {
	case CodecRaw, CodecF32, CodecIVarint:
		return nil
	}
	return fmt.Errorf("%w: codec byte %d, this build reads 0 (raw), 2 (f32) and 3 (ivarint)", ErrVersion, byte(c))
}

// CodecByName resolves a CLI-facing codec name. The empty string means
// raw, so flag defaults compose without special-casing.
func CodecByName(name string) (Codec, error) {
	if name == "" {
		return CodecRaw, nil
	}
	for c := range Codec(numCodecs) {
		if checkCodec(c) == nil && c.Name() == name {
			return c, nil
		}
	}
	return CodecRaw, fmt.Errorf("store: unknown codec %q (want raw, ivarint or f32)", name)
}

// tileRows is an h x w tile of cells where a block or a panel holds it:
// row r is the w cells cells[0], cells[step], cells[2·step], … of what it
// returns for r — a run of a row, step 1, or a column of a tile in lane
// order, step its group's width.
type tileRows[C matrix.Cell] func(r int) (cells []C, step int)

// blockRows is the tileRows of a dense block.
func blockRows(tile *matrix.Block) tileRows[float64] {
	return func(r int) ([]float64, int) { return tile.Data[r*tile.C:], 1 }
}

// appendCells appends the h x w tile row returns encoded through c and
// returns the codec of what it appended: c's form when c accepts the tile
// and it comes out strictly smaller than raw, raw otherwise, so a store is
// never larger than its all-raw equivalent.
func appendCells[C matrix.Cell](dst []byte, c Codec, h, w int, row tileRows[C]) ([]byte, Codec) {
	out, ok := dst, false
	switch c {
	case CodecIVarint:
		out, ok = appendIVarint(dst, ivarintRestartRows, h, w, row)
	case CodecF32:
		out, ok = appendF32(dst, h, w, row)
	}
	if ok && int64(len(out)-len(dst)) < matrix.DenseMarshaledSize(h, w) {
		return out, c
	}
	return appendRaw(dst, h, w, row), CodecRaw
}

// EncodeTile appends the encoded payload of the dense tile to dst, as a
// store writer encodes it, and reports whether it took c's form. A tile c
// declines (its values are outside the codec's domain, or it would not
// get smaller) is appended raw, and the result is false.
func (c Codec) EncodeTile(dst []byte, tile *matrix.Block) ([]byte, bool) {
	out, got := appendCells(dst, c, tile.R, tile.C, blockRows(tile))
	return out, got == c
}

// DecodeTile decodes a payload of codec c into a fresh heap-owned h x w
// block. Corrupt or truncated input returns an error wrapping
// ErrCodecData, never panics, and never allocates more than the h*w
// output the caller's geometry implies.
func (c Codec) DecodeTile(data []byte, h, w int) (*matrix.Block, error) {
	return c.decodeTile(data, h, w, false)
}

// decodeTile is DecodeTile of data that checked says has just passed
// checkTile, or not (decodeCells).
func (c Codec) decodeTile(data []byte, h, w int, checked bool) (*matrix.Block, error) {
	blk := matrix.NewZero(h, w)
	if err := decodeCells(c, data, h, w, w, blk.Data, checked); err != nil {
		return nil, err
	}
	return blk, nil
}

// decodeCells decodes the whole h x w payload data of the codec into dst,
// in lane order of lanes-wide groups (matrix.LaneIndex; lanes >= w is
// row-major): float64 tiles (DecodeTile) and the uint32 tiles a sparse
// solve seeds from (PanelWriter.ReadBack). A value the cell type does not
// hold exactly, and a codec byte this build does not read, are
// ErrCodecData. checked says data has just passed checkTile, as every
// store read and read-back of a whole tile has (readChecked): its bytes
// are the ones written, whose restart groups hash to their sums, so
// ivarint does not hash them a second time. It allocates nothing.
func decodeCells[C matrix.Cell](c Codec, data []byte, h, w, lanes int, dst []C, checked bool) error {
	switch c {
	case CodecIVarint:
		return decodeIVarintTile(data, h, w, lanes, dst, checked)
	case CodecRaw:
		if _, err := c.rowTable(data, h, w); err != nil {
			return err
		}
		return decodeFixed(data[matrix.HeaderLen:], 8, h, w, lanes, dst, decodeRawRun[C])
	case CodecF32:
		if _, err := c.rowTable(data, h, w); err != nil {
			return err
		}
		return decodeFixed(data[f32HdrLen:], 4, h, w, lanes, dst, decodeF32Run[C])
	}
	return fmt.Errorf("%w: unknown codec %d", ErrCodecData, byte(c))
}

// rowTable validates the header of a whole h x w payload of codec c and
// returns the table rowSpan and decodeRow need to serve single rows
// without the rest of it. The table does not alias data.
func (c Codec) rowTable(data []byte, h, w int) (*rowTable, error) {
	switch c {
	case CodecRaw:
		if err := matrix.ValidateDenseHeader(data, h, w); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCodecData, err)
		}
		if int64(len(data)) != matrix.DenseMarshaledSize(h, w) {
			return nil, fmt.Errorf("%w: raw tile %dx%d is %d bytes", ErrCodecData, h, w, len(data))
		}
		return fixedRows, nil
	case CodecF32:
		if err := checkCodecHeader(data, magicF32, h, w); err != nil {
			return nil, err
		}
		// Overflow-safe exact-length check, same discipline as
		// matrix.Unmarshal: divide the payload instead of multiplying the
		// shape so a forged header cannot alias a short buffer.
		payload := uint64(len(data) - f32HdrLen)
		if len(data) < f32HdrLen || payload%4 != 0 || payload/4 != uint64(h)*uint64(w) {
			return nil, fmt.Errorf("%w: f32 tile %dx%d needs %d payload bytes, got %d",
				ErrCodecData, h, w, 4*uint64(h)*uint64(w), len(data)-f32HdrLen)
		}
		return fixedRows, nil
	case CodecIVarint:
		t := &rowTable{}
		err := ivarintGroups(data, h, w, func(g, k, from, to int, sum uint32) error {
			if g == 0 {
				groups := (h + k - 1) / k
				t.k, t.base, t.ends, t.sums = k, from, make([]uint32, groups), make([]uint32, groups)
			}
			t.ends[g], t.sums[g] = uint32(to), sum
			return nil
		})
		if err != nil {
			return nil, err
		}
		return t, nil
	}
	return nil, fmt.Errorf("%w: unknown codec %d", ErrCodecData, byte(c))
}

// rowSpan returns the payload byte range [off, off+n) holding row r of a
// tile of codec c w values wide, whose table is t.
func (c Codec) rowSpan(t *rowTable, w, r int) (off, n int) {
	switch c {
	case CodecF32:
		return f32HdrLen + r*w*4, w * 4
	case CodecIVarint:
		from, to, _ := t.group(r)
		return from, to - from
	}
	return matrix.HeaderLen + r*w*8, w * 8
}

// decodeRow decodes row r of a tile of codec c from span — exactly the
// bytes rowSpan named — into dst (len w) without allocating. Bytes that
// cannot be that row return an error wrapping ErrCodecData, never panic.
func (c Codec) decodeRow(t *rowTable, span []byte, r int, dst []float64) error {
	switch c {
	case CodecRaw:
		if err := checkRowSpan(span, dst, 8); err != nil {
			return err
		}
		return decodeRawRun(dst, span)
	case CodecF32:
		if err := checkRowSpan(span, dst, 4); err != nil {
			return err
		}
		return decodeF32Run(dst, span)
	case CodecIVarint:
		_, _, sum := t.group(r)
		_, err := decodeIVarintGroup(span, sum, (r%t.k)*len(dst), dst)
		return err
	}
	return fmt.Errorf("%w: unknown codec %d", ErrCodecData, byte(c))
}

// checkRowSpan guards the fixed-width row decoders against a span that is
// not exactly one row.
func checkRowSpan(span []byte, dst []float64, width int) error {
	if len(span) != width*len(dst) {
		return fmt.Errorf("%w: row span of %d bytes for %d values of %d bytes", ErrCodecData, len(span), len(dst), width)
	}
	return nil
}

// appendRaw is the raw encoder: the matrix.Marshal bytes of the h x w
// tile row returns. Raw holds every value, so it never declines.
func appendRaw[C matrix.Cell](dst []byte, h, w int, row tileRows[C]) []byte {
	dst = slices.Grow(matrix.AppendDenseHeader(dst, h, w), 8*h*w)
	for r := 0; r < h; r++ {
		cells, step := row(r)
		cells = cells[:(w-1)*step+1]
		for p := 0; p < len(cells); p += step {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(matrix.Recast[float64](cells[p])))
		}
	}
	return dst
}

// decodeFixed decodes h x w values of size bytes each, row-major from
// vals[0], into dst in lane order of lanes-wide groups, a run at a time
// through a fixed-width codec's decoder, run.
func decodeFixed[C matrix.Cell](vals []byte, size, h, w, lanes int, dst []C, run func(out []C, in []byte) error) error {
	for r := 0; r < h; r++ {
		for c0 := 0; c0 < w; c0 += lanes {
			if err := run(dst[matrix.LaneIndex(r, c0, h, w, lanes):][:min(lanes, w-c0)], vals[size*(r*w+c0):]); err != nil {
				return err
			}
		}
	}
	return nil
}

// decodeRawRun is the raw decoder: it decodes len(out) values from the
// float64 bits at the start of in. A float64 cell takes the bits as they
// are; a uint32 cell takes +Inf as matrix.NoPath32, an integer in
// [0, NoPath32) as itself, and nothing else.
func decodeRawRun[C matrix.Cell](out []C, in []byte) error {
	for i := range out {
		switch v := math.Float64frombits(binary.LittleEndian.Uint64(in[8*i:])); {
		case unsafe.Sizeof(out[i]) == 8:
			out[i] = C(v)
		case math.IsInf(v, 1):
			out[i] = matrix.NoPath[C]()
		case v >= 0 && v < matrix.NoPath32 && v == math.Trunc(v):
			out[i] = C(v)
		default:
			return fmt.Errorf("%w: raw value %v is no uint32 distance", ErrCodecData, v)
		}
	}
	return nil
}

// Encoded-tile header layout, shared by ivarint and f32: one magic byte
// plus the h x w shape, mirroring matrix.Marshal's 9-byte header so a
// misrouted payload is caught before any value is trusted. f32 appends
// the observed max relative error as a float32; ivarint (id 3) appends
// its restart-group table (see the file comment).
const (
	magicF32     = 0xC3
	magicIVarint = 0xC4

	codecHdrLen = 9
	f32HdrLen   = codecHdrLen + 4

	// ivarintRestartRows is k, the rows per restart group this build
	// writes. Smaller groups read faster (a cold row skips (k-1)/2 rows of
	// tokens per tile on average) and cost 8 table bytes plus one
	// undeltaed value each; at 16 that is +0.2 % on a 256x256 tile.
	ivarintRestartRows = 16
)

func putCodecHeader(dst []byte, magic byte, h, w int) []byte {
	dst = append(dst, magic)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(h))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(w))
	return dst
}

func checkCodecHeader(data []byte, magic byte, h, w int) error {
	if len(data) < codecHdrLen {
		return fmt.Errorf("%w: %d bytes, need at least the %d-byte header", ErrCodecData, len(data), codecHdrLen)
	}
	if data[0] != magic {
		return fmt.Errorf("%w: magic %#x, want %#x", ErrCodecData, data[0], magic)
	}
	gh := int(binary.LittleEndian.Uint32(data[1:5]))
	gw := int(binary.LittleEndian.Uint32(data[5:9]))
	if gh != h || gw != w {
		return fmt.Errorf("%w: header says %dx%d, geometry implies %dx%d", ErrCodecData, gh, gw, h, w)
	}
	return nil
}

// maxExactInt bounds the integers float64 represents exactly (2^53):
// ivarint only accepts values strictly inside it, so int64 <-> float64
// conversions on both sides of the codec are lossless by construction.
const maxExactInt = int64(1) << 53

// appendIVarint is the ivarint encoder: zigzag-delta + uvarint over the
// integer view of the values, row-major. Token 0 escapes +Inf (the "no
// path" value, which has no integer view and does not advance the delta
// predecessor); token t > 0 encodes the signed delta unzigzag(t-1) from
// the previous finite value of the same restart group. Distances within a
// row are similar magnitudes, so the deltas are small and most tokens fit
// one or two bytes. It lays out the h x w tile row returns in restart
// groups of k rows (the file comment), a word of eight one-byte tokens at
// a time where it can (appendIVarintWords; the word the step stops at, and
// the last few cells of a row, go through the loop here), and declines it
// at the first value outside the codec's domain — every uint32 is in it,
// a float64 when it is a positive integer below 2^53 or ivarintExact —
// or once it is not getting smaller than raw, checked row by row.
func appendIVarint[C matrix.Cell](dst []byte, k, h, w int, row tileRows[C]) ([]byte, bool) {
	rawSize := matrix.DenseMarshaledSize(h, w)
	if rawSize > math.MaxUint32 {
		return dst, false // group offsets are uint32
	}
	none := matrix.NoPath[C]()
	start := len(dst)
	groups := (h + k - 1) / k
	dst = append(putCodecHeader(dst, magicIVarint, h, w), byte(k))
	table := len(dst)
	dst = append(dst, make([]byte, 8*groups)...)
	for g := 0; g < groups; g++ {
		from := len(dst)
		prev := int64(0)
		for r := g * k; r < min(h, (g+1)*k); r++ {
			cells, step := row(r)
			cells = cells[:(w-1)*step+1]
			// The word step runs from cell next on: at once where this build
			// has it, and again after each word it leaves to this loop.
			next := uint(len(cells))
			if haveWordSteps {
				next = 0
			}
			// An unsigned index folds the bounds check into the loop test.
			for p := uint(0); p < uint(len(cells)); p += uint(step) {
				if p >= next {
					var words int
					if dst, words = appendIVarintWords(dst, cells[p:], step, prev); words > 0 {
						p += uint(8 * words * step)
						prev = int64(cells[p-uint(step)])
						if p >= uint(len(cells)) {
							break
						}
					}
					next = p + uint(8*step)
				}
				v := cells[p]
				iv := int64(v)
				switch {
				case unsafe.Sizeof(v) == 8 && float64(iv) == float64(v) && uint64(iv-1) < uint64(maxExactInt-1):
					// What a float64 distance store is made of, checked first.
				case v == none:
					dst = append(dst, 0)
					continue
				case unsafe.Sizeof(v) == 8 && !ivarintExact(float64(v), iv):
					return dst, false
				}
				dst = appendIVarintToken(dst, iv-prev)
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

// appendIVarintWords is the encoder's word step (codec_amd64.s): it
// appends the tokens of the leading words of eight cells — cells[0],
// cells[step], … — while each cell is a non-negative integer below 2^31
// and each token one byte, and returns how many words it took. float64
// cells take it only where they are contiguous. It runs from a
// predecessor in [0, 2^31), which keeps every delta exact in 32 bits.
func appendIVarintWords[C matrix.Cell](dst []byte, cells []C, step int, prev int64) ([]byte, int) {
	words := ((len(cells)-1)/step + 1) / 8
	if words == 0 || uint64(prev) >= wordStepTop || (unsafe.Sizeof(cells[0]) == 8 && step != 1) {
		return dst, 0
	}
	dst = slices.Grow(dst, 8*words)
	out := dst[len(dst) : len(dst)+8*words]
	if unsafe.Sizeof(cells[0]) == 4 {
		words = encodeWords32(out, recast[uint32](cells), step, uint32(prev))
	} else {
		words = encodeWords64(out, recast[float64](cells), uint32(prev))
	}
	return dst[:len(dst)+8*words], words
}

// recast is s as a slice of E, a type of the same size as C.
func recast[E, C any](s []C) []E {
	return unsafe.Slice((*E)(unsafe.Pointer(unsafe.SliceData(s))), len(s))
}

// ivarintExact reports whether v, whose integer view is iv, is an integer
// below 2^53 in magnitude, which float64 holds exactly, and not -0.0,
// which would decode as +0.0. NaN and ±Inf have no such view.
func ivarintExact(v float64, iv int64) bool {
	return float64(iv) == v && -maxExactInt < iv && iv < maxExactInt && (iv != 0 || !math.Signbit(v))
}

// appendIVarintToken appends the token of a delta d from the group's
// predecessor: zigzag, plus one to keep 0 for the +Inf escape, as a
// uvarint — one byte when d is within 63 of it, as most are. Every token
// the encoder writes goes through here.
func appendIVarintToken(dst []byte, d int64) []byte {
	tok := uint64((d<<1)^(d>>63)) + 1
	if tok < 0x80 {
		return append(dst, byte(tok))
	}
	return binary.AppendUvarint(dst, tok)
}

// ivarintGroups checks the header and restart table of a whole h x w
// ivarint payload and hands each restart group to each, in order: group
// g of k rows a group, whose bytes data[from:to] hash to sum. It is the
// one walker of the table — rowTable records it, decodeIVarintTile
// decodes along it — and allocates nothing; an error from each stops the
// walk and is returned.
func ivarintGroups(data []byte, h, w int, each func(g, k, from, to int, sum uint32) error) error {
	if err := checkCodecHeader(data, magicIVarint, h, w); err != nil {
		return err
	}
	if len(data) <= codecHdrLen || data[codecHdrLen] == 0 {
		return fmt.Errorf("%w: ivarint tile without a restart interval", ErrCodecData)
	}
	k := int(data[codecHdrLen])
	groups := (h + k - 1) / k
	from := int64(codecHdrLen + 1 + 8*groups)
	if int64(len(data)) < from {
		return fmt.Errorf("%w: %d bytes cannot hold a %d-group restart table", ErrCodecData, len(data), groups)
	}
	for g := 0; g < groups; g++ {
		ent := data[codecHdrLen+1+8*g:]
		to := int64(binary.LittleEndian.Uint32(ent))
		// Every token is at least one byte, so a group shorter than its
		// value count (or running backwards, or past the payload) is a
		// forgery no decode needs to discover.
		if to-from < int64(min(k, h-g*k))*int64(w) || to > int64(len(data)) {
			return fmt.Errorf("%w: restart group %d spans [%d,%d) of %d bytes", ErrCodecData, g, from, to, len(data))
		}
		if err := each(g, k, int(from), int(to), binary.LittleEndian.Uint32(ent[4:])); err != nil {
			return err
		}
		from = to
	}
	if from != int64(len(data)) {
		return fmt.Errorf("%w: %d trailing bytes after the last restart group", ErrCodecData, int64(len(data))-from)
	}
	return nil
}

// decodeIVarintTile decodes a whole h x w ivarint payload into dst, h·w
// cells in lane order of lanes-wide groups (matrix.LaneIndex; lanes >= w
// is row-major), a restart group at a time, each held to its checksum
// unless checked says the whole payload has just passed checkTile. It
// allocates nothing.
func decodeIVarintTile[C matrix.Cell](data []byte, h, w, lanes int, dst []C, checked bool) error {
	return ivarintGroups(data, h, w, func(g, k, from, to int, sum uint32) error {
		group := data[from:to]
		var err error
		if !checked {
			err = checkIVarintGroup(group, sum)
		}
		// Each row's runs, one lane group after the other, carry the
		// group's predecessor on: as far as it goes, through the vector
		// word step across the row's lane groups (decodeIVarintLanes), then
		// a run at a time from the cell where it stopped.
		used, prev := 0, int64(0)
		for r := g * k; r < min(h, (g+1)*k) && err == nil; r++ {
			c := 0
			if unsafe.Sizeof(*new(C)) == 4 && haveWordSteps {
				c, used, prev = decodeIVarintLanes(group, used, prev, r, h, w, lanes, recast[uint32](dst))
			}
			for c0 := c / lanes * lanes; c0 < w && err == nil; c0 += lanes {
				from := max(c, c0)
				used, prev, err = decodeIVarintRun(group, used, prev, 0, dst[matrix.LaneIndex(r, from, h, w, lanes):][:min(lanes, w-c0)-(from-c0)])
			}
		}
		if err == nil && used != to-from {
			err = fmt.Errorf("%w: %d trailing bytes after the ivarint values of rows %d..", ErrCodecData, to-from-used, g*k)
		}
		return err
	})
}

// decodeIVarintLanes is the vector word step (decodeWords32) over row r
// of an h x w tile decoded into uint32 cells in lane order of lanes-wide
// groups: from byte pos of its restart group, after the predecessor prev,
// it decodes the row's leading words across every whole lane group — a
// row's cells in a group are one run, the next group's lanes·(h−1) cells
// on — and returns the first cell it left to the scalar loop, where the
// group stands and the predecessor there.
func decodeIVarintLanes(group []byte, pos int, prev int64, r, h, w, lanes int, dst []uint32) (c, next int, last int64) {
	run, gap, cells := lanes, lanes*(h-1), w/lanes*lanes
	if lanes >= w {
		run, gap, cells = 8, 0, w // the row is one run
	}
	if uint64(prev) >= wordStepTop || run%8 != 0 || cells < 8 {
		return 0, pos, prev
	}
	words := decodeWords32(dst[matrix.LaneIndex(r, 0, h, w, lanes):], group[pos:], uint32(prev), cells/8, run, gap)
	if words == 0 {
		return 0, pos, prev
	}
	c = 8 * words
	return c, pos + c, int64(dst[matrix.LaneIndex(r, c-1, h, w, lanes)])
}

// ivarintDelta[b] is the delta carried by the one-byte token b (0 for the
// +Inf escape, which does not move the predecessor). Most tokens are one
// byte — a delta under 64 — so decoding is mostly a table lookup and an
// add per value, and the skip that dominates a row read mostly takes
// eight of them at once (ivarintWordDelta).
var ivarintDelta = func() (t [128]int8) {
	for b := 1; b < len(t); b++ {
		u := b - 1
		t[b] = int8(u>>1 ^ -(u & 1))
	}
	return t
}()

// decodeIVarintGroup checks one restart group against its checksum, walks
// past its first skip values and decodes the next len(dst) into dst, +Inf
// as the cell's no path (matrix.NoPath32 for uint32). It returns how many
// bytes of the group it consumed: a row read. decodeIVarintRun, which it
// calls, is the one ivarint decoder, for rows and tiles alike.
func decodeIVarintGroup[C matrix.Cell](group []byte, sum uint32, skip int, dst []C) (int, error) {
	if err := checkIVarintGroup(group, sum); err != nil {
		return 0, err
	}
	pos, _, err := decodeIVarintRun(group, 0, 0, skip, dst)
	return pos, err
}

// checkIVarintGroup holds a restart group to its checksum.
func checkIVarintGroup(group []byte, sum uint32) error {
	if got := crc32.Checksum(group, castagnoli); got != sum {
		return fmt.Errorf("%w: restart group checksum %08x, table says %08x", ErrCodecData, got, sum)
	}
	return nil
}

// decodeIVarintRun goes on through a checked restart group from byte pos,
// after the predecessor prev: it walks past skip values and decodes the
// next len(dst) into dst, and returns where it stopped and the
// predecessor there.
//
// Wherever a little-endian word of the group holds eight one-byte tokens
// and no escape, it takes the eight at once: skipped, they are one SWAR
// sum (skipIVarintWords); decoded, eight running sums stored once all of
// them are in the cell's range (decodeIVarintWords, in vector registers
// for uint32 cells where the build has the word steps). Every other token —
// an escape, a longer token, a word whose values leave the range, the
// last few of the run — is one scalar step, which reports every error.
func decodeIVarintRun[C matrix.Cell](group []byte, pos int, prev int64, skip int, dst []C) (int, int64, error) {
	// The values a cell holds exactly: integers of magnitude below 2^53 as
	// float64, [0, NoPath32) as uint32.
	lo, hi, none := -maxExactInt, maxExactInt, matrix.NoPath[C]()
	if unsafe.Sizeof(none) == 4 {
		lo, hi = -1, matrix.NoPath32
	}
	for i := -skip; i < len(dst); i++ {
		if (i <= -8 || i >= 0 && len(dst)-i >= 8) && oneByteWord(group[pos:]) {
			var words int
			if i < 0 {
				var d int64
				words, d = skipIVarintWords(group[pos:], -i/8)
				prev += d
			} else {
				words, prev = decodeIVarintWords(group[pos:], prev, lo, hi, dst[i:])
			}
			if pos, i = pos+8*words, i+8*words; i >= len(dst) {
				break
			}
		}
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
				return 0, 0, fmt.Errorf("%w: ivarint stream ends %d values early", ErrCodecData, len(dst)-i)
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
			return 0, 0, fmt.Errorf("%w: ivarint value %d out of the cell's exact range", ErrCodecData, prev)
		} else {
			dst[i] = C(prev)
		}
	}
	return pos, prev, nil
}

const (
	wordOnes  = 0x0101010101010101
	wordHighs = 0x8080808080808080

	// wordStepTop bounds the predecessors the vector word steps start from
	// and the values they take. Below it every encoder delta is exact in 32
	// bits, and eight one-byte deltas, which move a value by at most 512,
	// take a decoded value out of [0, wordStepTop) exactly when its 32-bit
	// sign bit is set.
	wordStepTop = 1 << 31
)

// oneByteWord reports whether b starts with eight one-byte tokens, none
// of them the escape: every byte in [1, 127].
func oneByteWord(b []byte) bool {
	if len(b) < 8 {
		return false
	}
	x := binary.LittleEndian.Uint64(b)
	return (x|(x-wordOnes))&wordHighs == 0
}

// skipIVarintWords walks past up to max leading words of b that are
// oneByteWord and returns how many it passed and the sum of their deltas.
func skipIVarintWords(b []byte, max int) (words int, delta int64) {
	for ; words < max && oneByteWord(b); words++ {
		delta += ivarintWordDelta(binary.LittleEndian.Uint64(b) - wordOnes)
		b = b[8:]
	}
	return words, delta
}

// ivarintWordDelta is the sum of the deltas of a oneByteWord x, given u =
// x − wordOnes: each byte of u is its token minus one, in [0, 126], and
// carries u>>1 when even and −((u>>1)+1) when odd. Each byte is mapped to
// its delta plus 64, in [0, 127], and the eight are summed through 16-bit
// lanes and one multiply.
func ivarintWordDelta(u uint64) int64 {
	const low6, bit6, lanes = 0x3F3F3F3F3F3F3F3F, 0x4040404040404040, 0x00FF00FF00FF00FF
	half := u >> 1 & low6                 // u>>1 of each byte, at most 63
	neg := (u & wordOnes) * 0xFF          // 0xFF in each byte whose delta is negative
	biased := half ^ neg&low6 | ^neg&bit6 // 64 + u>>1, or 63 − u>>1
	pairs := biased&lanes + biased>>8&lanes
	return int64(pairs*0x0001000100010001>>48) - 8*64
}

// decodeIVarintWords decodes the leading oneByteWords of b after the
// predecessor prev into dst, eight values a word, while eight cells of
// dst remain and the word's values all lie strictly between lo and hi. It
// returns how many words it decoded and the predecessor after them; it
// stores nothing of the word it stops at.
func decodeIVarintWords[C matrix.Cell](b []byte, prev, lo, hi int64, dst []C) (words int, last int64) {
	// uint32 cells first go through the vector word step where this build
	// has it (codec_amd64.s), from a predecessor it keeps exact in 32 bits;
	// the loop below goes on from the word it stops at.
	if unsafe.Sizeof(*new(C)) == 4 && haveWordSteps && uint64(prev) < wordStepTop {
		if words = decodeWords32(recast[uint32](dst), b, uint32(prev), len(dst)/8, 8, 0); words > 0 {
			prev, b, dst = int64(dst[8*words-1]), b[8*words:], dst[8*words:]
		}
	}
	for ; len(dst) >= 8 && oneByteWord(b); words++ {
		// Eight named sums, not a loop over an array: the compiler keeps
		// these in registers, which decodes a tile twice as fast.
		x := binary.LittleEndian.Uint64(b)
		v0 := prev + int64(ivarintDelta[x&0x7F])
		v1 := v0 + int64(ivarintDelta[x>>8&0x7F])
		v2 := v1 + int64(ivarintDelta[x>>16&0x7F])
		v3 := v2 + int64(ivarintDelta[x>>24&0x7F])
		v4 := v3 + int64(ivarintDelta[x>>32&0x7F])
		v5 := v4 + int64(ivarintDelta[x>>40&0x7F])
		v6 := v5 + int64(ivarintDelta[x>>48&0x7F])
		v7 := v6 + int64(ivarintDelta[x>>56&0x7F])
		if min(v0, v1, v2, v3, v4, v5, v6, v7) <= lo || max(v0, v1, v2, v3, v4, v5, v6, v7) >= hi {
			break
		}
		d := dst[:8]
		d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = C(v0), C(v1), C(v2), C(v3), C(v4), C(v5), C(v6), C(v7)
		prev, b, dst = v7, b[8:], dst[8:]
	}
	return words, prev
}

// appendF32 is the f32 encoder: the values downcast to float32, 2x
// denser than raw and lossy, behind the worst relative error of their
// round trip, |f64(f32(v)) - v| / max(|v|, 1). It declines the tile when
// that exceeds F32DefaultMaxRelErr, so every f32-coded tile in a store is
// within the bound.
func appendF32[C matrix.Cell](dst []byte, h, w int, row tileRows[C]) ([]byte, bool) {
	// Error pass first: a declined tile must cost no appends. +Inf
	// round-trips exactly; NaN and values past float32 range do not.
	maxRel, none := 0.0, matrix.NoPath[C]()
	for r := 0; r < h; r++ {
		cells, step := row(r)
		cells = cells[:(w-1)*step+1]
		for p := 0; p < len(cells); p += step {
			if cells[p] == none {
				continue
			}
			v := float64(cells[p])
			back := float64(float32(v))
			rel := math.Abs(back-v) / math.Max(math.Abs(v), 1)
			if math.IsNaN(rel) || rel > F32DefaultMaxRelErr {
				return dst, false
			}
			if rel > maxRel {
				maxRel = rel
			}
		}
	}
	dst = putCodecHeader(dst, magicF32, h, w)
	dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(f32Bound(maxRel)))
	for r := 0; r < h; r++ {
		cells, step := row(r)
		cells = cells[:(w-1)*step+1]
		for p := 0; p < len(cells); p += step {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(matrix.Recast[float64](cells[p]))))
		}
	}
	return dst, true
}

// f32Bound is the relative error an f32 tile records when its worst
// value's is maxRel: the least float32 not below maxRel, so that the
// record bounds every value's error.
func f32Bound(maxRel float64) float32 {
	r := float32(maxRel)
	if float64(r) < maxRel {
		r = math.Nextafter32(r, float32(math.Inf(1)))
	}
	return r
}

// decodeF32Run is the f32 decoder: it decodes len(out) values from the
// float32 bits at the start of in. Lossy, they are refused as uint32.
func decodeF32Run[C matrix.Cell](out []C, in []byte) error {
	if unsafe.Sizeof(*new(C)) == 4 {
		return fmt.Errorf("%w: codec f32 does not decode to exact integers", ErrCodecData)
	}
	for i := range out {
		out[i] = C(math.Float32frombits(binary.LittleEndian.Uint32(in[4*i:])))
	}
	return nil
}

// TileMaxRelErr reads the recorded maximum relative error out of an
// f32 tile payload (0 for every exact codec).
func TileMaxRelErr(codec Codec, data []byte) float64 {
	if codec != CodecF32 || len(data) < f32HdrLen {
		return 0
	}
	return float64(math.Float32frombits(binary.LittleEndian.Uint32(data[codecHdrLen:])))
}
