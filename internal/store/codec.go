// Per-tile compression codecs: store format v3.
//
// Every serving bottleneck the benches measure is byte-bound — cold row
// latency is tile IO, effective page-cache capacity is file bytes — so
// each tile chooses how its payload is encoded. Its 24-byte index entry
// carries a codec byte, and all tile IO funnels through the Codec
// interface:
//
//   - raw (id 0): the tile's matrix.Marshal bytes. Always available,
//     always correct, the fallback every other codec declines into.
//   - ivarint (id 3): zigzag-delta + uvarint over the integer view of the
//     float64 values, with +Inf as an escape token. Exact — a tile is
//     only encoded this way when every value is a non-negative-zero
//     integer with |v| < 2^53 (so float64 holds it exactly; the dij
//     differential suite proves integer path sums stay in that range),
//     and decode reproduces the identical float64 bits. Tiles with any non-integral, NaN, -Inf or too-large
//     value are stored raw instead. On integer-weight graphs, distance
//     rows are small monotone-ish integers whose deltas fit 1-2 varint
//     bytes: 4-8x denser than raw. A panel of uint32 distance cells
//     (PanelWriter.WriteCells) encodes to the same bytes straight from
//     its integers, through the same restart-group layout and token
//     writer.
//   - f32 (id 2): lossy float32 downcast, opt-in only. The encoder
//     measures the worst relative error of the round trip and declines
//     the tile (falling back to raw) when it exceeds the codec's bound;
//     the observed maximum is recorded in the tile header so a reader
//     can report it. Never the default: it trades exactness for 2x.
//
// A codec's encoded form is only used when it is strictly smaller than
// raw, so "compressed tile no larger than its raw size" is a format
// invariant Open enforces on every v3 index entry.
//
// Every codec is row-addressable: RowTable/RowSpan/DecodeRow locate and
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
// later value of the group, not one. Byte 1 named an earlier ivarint
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

// Codec identifiers as stored in the v3 index entry's codec byte.
const (
	// CodecRaw stores the tile's matrix.Marshal bytes unchanged.
	CodecRaw byte = 0
	// CodecF32 stores an error-bounded float32 downcast.
	CodecF32 byte = 2
	// CodecIVarint stores zigzag-delta + uvarint over integer values in
	// row-addressable restart groups. It has its own byte so a build that
	// predates the layout refuses the store at Open (ErrVersion) instead
	// of quarantining its tiles one by one.
	CodecIVarint byte = 3

	// numCodecs bounds the codec bytes; byte 1 is retired (see above).
	numCodecs = 4
)

// F32DefaultMaxRelErr is the default per-value relative-error bound of
// the f32 codec: any tile whose float32 round trip would exceed it is
// stored raw instead. float32 rounding is at worst 2^-24 =~ 6e-8
// relative, so the default leaves an order-of-magnitude margin while
// still rejecting values outside float32 range (which round-trip to
// +Inf, an infinite relative error).
const F32DefaultMaxRelErr = 1e-6

// ErrCodecData means an encoded tile's bytes are not a valid stream for
// the codec the index claims (truncated, trailing garbage, or values
// outside the codec's domain). Store reads wrap it in ErrCorruptTile and
// quarantine the tile.
var ErrCodecData = errors.New("store: malformed encoded tile")

// Codec encodes and decodes one tile payload. Implementations must be
// stateless and safe for concurrent use; the store holds one instance
// per codec id for the life of the process.
type Codec interface {
	// ID is the codec byte written into v3 index entries.
	ID() byte
	// Name is the stable CLI/metrics name ("raw", "ivarint", "f32").
	Name() string
	// EncodeTile appends the encoded payload of the dense tile to dst
	// and reports whether the codec accepted the tile. Declining (false)
	// is not an error: it means this tile's values are outside the
	// codec's domain (or would not get smaller) and the caller must fall
	// back to raw. A declined encode may leave partial bytes in dst; the
	// caller re-slices.
	EncodeTile(dst []byte, tile *matrix.Block) ([]byte, bool)
	// DecodeTile decodes a payload produced by EncodeTile into a fresh
	// heap-owned h x w block. Corrupt or truncated input returns an
	// error wrapping ErrCodecData, never panics, and never allocates
	// more than the h*w output the caller's geometry implies.
	DecodeTile(data []byte, h, w int) (*matrix.Block, error)
	// RowTable validates the header of a whole h x w payload and returns
	// the table RowSpan and DecodeRow need to serve single rows without
	// the rest of it. The table does not alias data.
	RowTable(data []byte, h, w int) (*RowTable, error)
	// RowSpan returns the payload byte range [off, off+n) holding row r
	// of a tile w values wide.
	RowSpan(t *RowTable, w, r int) (off, n int)
	// DecodeRow decodes row r from span — exactly the bytes RowSpan
	// named — into dst (len w) without allocating. Bytes that cannot be
	// that row return an error wrapping ErrCodecData, never panic.
	DecodeRow(t *RowTable, span []byte, r int, dst []float64) error
}

// RowTable is what must be remembered of a tile's header to address its
// rows: rows come in groups of k, group g ends at payload offset
// ends[g] (and starts where group g-1 ended, the first at base) and its
// bytes hash to sums[g]. Fixed-width codecs need none of it and share
// fixedRows.
type RowTable struct {
	k, base    int
	ends, sums []uint32
}

var fixedRows = &RowTable{}

// group returns the byte range and checksum of the restart group holding
// row r.
func (t *RowTable) group(r int) (from, to int, sum uint32) {
	g := r / t.k
	from = t.base
	if g > 0 {
		from = int(t.ends[g-1])
	}
	return from, int(t.ends[g]), t.sums[g]
}

// codecs is the fixed codec table indexed by codec byte; a nil entry is a
// byte this build does not read.
var codecs = [numCodecs]Codec{
	CodecRaw:     rawCodec{},
	CodecF32:     f32Codec{MaxRelErr: F32DefaultMaxRelErr},
	CodecIVarint: ivarintCodec{k: ivarintRestartRows},
}

// checkCodec refuses, with ErrVersion, a codec byte this build does not
// read: a future codec, or the retired byte 1.
func checkCodec(id byte) error {
	if int(id) >= numCodecs || codecs[id] == nil {
		return fmt.Errorf("%w: codec byte %d, this build reads 0 (raw), 2 (f32) and 3 (ivarint)", ErrVersion, id)
	}
	return nil
}

// CodecByName resolves a CLI-facing codec name. The empty string means
// raw, so flag defaults compose without special-casing.
func CodecByName(name string) (Codec, error) {
	switch name {
	case "", "raw":
		return codecs[CodecRaw], nil
	case "ivarint":
		return codecs[CodecIVarint], nil
	case "f32":
		return codecs[CodecF32], nil
	}
	return nil, fmt.Errorf("store: unknown codec %q (want raw, ivarint or f32)", name)
}

// codecName maps a codec byte to its name (for metrics labels and error
// messages; unknown bytes never get this far — Open rejects them).
func codecName(id byte) string {
	if checkCodec(id) != nil {
		return fmt.Sprintf("codec-%d", id)
	}
	return codecs[id].Name()
}

// encodeTile encodes one tile through c with automatic raw fallback,
// appending the payload to dst. The encoded form is used only when the
// codec accepts the tile AND comes out strictly smaller than raw;
// everything else is stored raw, so a store is never larger than its
// all-raw equivalent. Returns the extended buffer and the codec byte that
// actually applies to the appended payload.
func encodeTile(c Codec, tile *matrix.Block, dst []byte) ([]byte, byte) {
	if c != nil && c.ID() != CodecRaw {
		rawSize := matrix.DenseMarshaledSize(tile.R, tile.C)
		if out, ok := c.EncodeTile(dst, tile); ok && int64(len(out)-len(dst)) < rawSize {
			return out, c.ID()
		}
	}
	return tile.AppendMarshal(dst), CodecRaw
}

// decodeTile dispatches a payload to its codec's decoder.
func decodeTile(id byte, data []byte, h, w int) (*matrix.Block, error) {
	if checkCodec(id) != nil {
		return nil, fmt.Errorf("%w: unknown codec %d", ErrCodecData, id)
	}
	return codecs[id].DecodeTile(data, h, w)
}

// checkRowSpan guards the fixed-width row decoders against a span that is
// not exactly one row.
func checkRowSpan(span []byte, dst []float64, width int) error {
	if len(span) != width*len(dst) {
		return fmt.Errorf("%w: row span of %d bytes for %d values of %d bytes", ErrCodecData, len(span), len(dst), width)
	}
	return nil
}

// rawCodec is the identity codec: payload == matrix.Marshal bytes.
type rawCodec struct{}

func (rawCodec) ID() byte     { return CodecRaw }
func (rawCodec) Name() string { return "raw" }

func (rawCodec) EncodeTile(dst []byte, tile *matrix.Block) ([]byte, bool) {
	return tile.AppendMarshal(dst), true
}

func (rawCodec) DecodeTile(data []byte, h, w int) (*matrix.Block, error) {
	blk, err := matrix.Unmarshal(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCodecData, err)
	}
	if blk.Phantom() || blk.R != h || blk.C != w {
		return nil, fmt.Errorf("%w: raw tile decoded as %dx%d phantom=%v, want dense %dx%d",
			ErrCodecData, blk.R, blk.C, blk.Phantom(), h, w)
	}
	return blk, nil
}

func (rawCodec) RowTable(data []byte, h, w int) (*RowTable, error) {
	if err := matrix.ValidateDenseHeader(data, h, w); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCodecData, err)
	}
	if int64(len(data)) != matrix.DenseMarshaledSize(h, w) {
		return nil, fmt.Errorf("%w: raw tile %dx%d is %d bytes", ErrCodecData, h, w, len(data))
	}
	return fixedRows, nil
}

func (rawCodec) RowSpan(_ *RowTable, w, r int) (off, n int) {
	return matrix.HeaderLen + r*w*8, w * 8
}

func (rawCodec) DecodeRow(_ *RowTable, span []byte, _ int, dst []float64) error {
	if err := checkRowSpan(span, dst, 8); err != nil {
		return err
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(span[8*i:]))
	}
	return nil
}

// tileRows is an h x w tile of uint32 cells where a panel holds it
// (matrix.Panel): row r is the w cells cells[0], cells[step],
// cells[2·step], … of what it returns for r — a run of the panel's row,
// step 1, or a column of a tile in lane order, step its group's width.
type tileRows func(r int) (cells []uint32, step int)

// appendRawInts appends the raw payload — the matrix.Marshal bytes — of
// the h x w tile of uint32 cells row returns, matrix.NoPath32 as +Inf.
func appendRawInts(dst []byte, h, w int, row tileRows) []byte {
	dst = slices.Grow(matrix.AppendDenseHeader(dst, h, w), 8*h*w)
	for r := 0; r < h; r++ {
		cells, step := row(r)
		for p := 0; p < (w-1)*step+1; p += step {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(matrix.Recast[float64](cells[p])))
		}
	}
	return dst
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

// ivarintCodec: zigzag-delta + uvarint over the integer view of the
// values, row-major. Token 0 escapes +Inf (the "no path" value, which
// has no integer view and does not advance the delta predecessor);
// token t > 0 encodes the signed delta unzigzag(t-1) from the previous
// finite value of the same restart group. Distances within a row are
// similar magnitudes, so the deltas are small and most tokens fit one or
// two bytes. k is the rows per restart group written.
type ivarintCodec struct{ k int }

func (ivarintCodec) ID() byte { return CodecIVarint }

func (ivarintCodec) Name() string { return "ivarint" }

func (c ivarintCodec) EncodeTile(dst []byte, tile *matrix.Block) ([]byte, bool) {
	w := tile.C
	return c.appendTile(dst, tile.R, w, func(dst []byte, r int, prev int64) ([]byte, int64, bool) {
		return appendFloatTokens(dst, tile.Data[r*w:(r+1)*w], prev)
	})
}

// appendInts is EncodeTile of the h x w tile of uint32 cells row
// returns, matrix.NoPath32 for +Inf: the bytes EncodeTile writes for the
// same values as float64, read where they lie in a panel. Every cell is in
// the codec's domain, so only size declines a tile.
func (c ivarintCodec) appendInts(dst []byte, h, w int, row tileRows) ([]byte, bool) {
	return c.appendTile(dst, h, w, func(dst []byte, r int, prev int64) ([]byte, int64, bool) {
		cells, step := row(r)
		cells = cells[:(w-1)*step+1]
		for p := 0; p < len(cells); p += step {
			v := cells[p]
			if v == matrix.NoPath32 {
				dst = append(dst, 0)
				continue
			}
			dst = appendIVarintToken(dst, int64(v)-prev)
			prev = int64(v)
		}
		return dst, prev, true
	})
}

// appendTile lays out an h x w tile in restart groups (the file comment)
// around the tokens row appends: those of row r after the group's
// predecessor prev, returning the new predecessor, or false to decline
// the tile. A tile that is not getting smaller than raw is declined too,
// checked row by row.
func (c ivarintCodec) appendTile(dst []byte, h, w int, row func(dst []byte, r int, prev int64) ([]byte, int64, bool)) ([]byte, bool) {
	rawSize := matrix.DenseMarshaledSize(h, w)
	if rawSize > math.MaxUint32 {
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
		for r := g * c.k; r < min(h, (g+1)*c.k); r++ {
			var ok bool
			if dst, prev, ok = row(dst, r, prev); !ok {
				return dst, false
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

// appendFloatTokens appends the tokens of float64 values after the
// predecessor prev and returns the new one, or false at the first value
// outside the codec's domain.
func appendFloatTokens(dst []byte, vals []float64, prev int64) ([]byte, int64, bool) {
	for _, v := range vals {
		// What a distance store is made of: a positive integer float64
		// holds exactly.
		if iv := int64(v); float64(iv) == v && uint64(iv-1) < uint64(maxExactInt-1) {
			dst = appendIVarintToken(dst, iv-prev)
			prev = iv
			continue
		}
		if math.IsInf(v, 1) {
			dst = append(dst, 0)
			continue
		}
		// Domain check: exactly representable non-negative-zero integers
		// only. NaN fails v == Trunc(v); -Inf fails the magnitude bound;
		// -0.0 would decode as +0.0 (different bits), so it is declined
		// too — bit-exactness is the codec's contract.
		if v != math.Trunc(v) || v <= float64(-maxExactInt) || v >= float64(maxExactInt) ||
			(v == 0 && math.Signbit(v)) {
			return dst, prev, false
		}
		iv := int64(v)
		dst = appendIVarintToken(dst, iv-prev)
		prev = iv
	}
	return dst, prev, true
}

// appendIVarintToken appends the token of a delta d from the group's
// predecessor: zigzag, plus one to keep 0 for the +Inf escape, as a
// uvarint — one byte when d is within 63 of it, as most are. Every token
// either encoder writes goes through here.
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
// one walker of the table — RowTable records it, decodeIVarintTile
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

func (ivarintCodec) RowTable(data []byte, h, w int) (*RowTable, error) {
	t := &RowTable{}
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

func (ivarintCodec) RowSpan(t *RowTable, _, r int) (off, n int) {
	from, to, _ := t.group(r)
	return from, to - from
}

func (ivarintCodec) DecodeRow(t *RowTable, span []byte, r int, dst []float64) error {
	_, _, sum := t.group(r)
	_, err := decodeIVarintGroup(span, sum, (r%t.k)*len(dst), dst)
	return err
}

func (ivarintCodec) DecodeTile(data []byte, h, w int) (*matrix.Block, error) {
	blk := matrix.New(h, w)
	if err := decodeIVarintTile(data, h, w, w, blk.Data); err != nil {
		return nil, err
	}
	return blk, nil
}

// decodeIVarintTile decodes a whole h x w ivarint payload into dst, h·w
// cells in lane order of lanes-wide groups (matrix.LaneIndex; lanes >= w
// is row-major), a restart group at a time. It allocates nothing.
func decodeIVarintTile[C matrix.Cell](data []byte, h, w, lanes int, dst []C) error {
	return ivarintGroups(data, h, w, func(g, k, from, to int, sum uint32) error {
		group := data[from:to]
		err := checkIVarintGroup(group, sum)
		// Each row's runs, one lane group after the other, carry the
		// group's predecessor on.
		used, prev := 0, int64(0)
		for r := g * k; r < min(h, (g+1)*k) && err == nil; r++ {
			for c0 := 0; c0 < w && err == nil; c0 += lanes {
				used, prev, err = decodeIVarintRun(group, used, prev, 0, dst[matrix.LaneIndex(r, c0, h, w, lanes):][:min(lanes, w-c0)])
			}
		}
		if err == nil && used != to-from {
			err = fmt.Errorf("%w: %d trailing bytes after the ivarint values of rows %d..", ErrCodecData, to-from-used, g*k)
		}
		return err
	})
}

// decodeIntTile decodes the whole h x w payload data of an exact codec —
// raw or ivarint — into dst as uint32 cells, +Inf as matrix.NoPath32, in
// lane order of lanes-wide groups: how a sparse solve's integer panels read
// back (PanelWriter.ReadBack). A value that is no uint32 distance, or a
// lossy codec, is ErrCodecData.
func decodeIntTile(codec byte, data []byte, h, w, lanes int, dst []uint32) error {
	switch codec {
	case CodecIVarint:
		return decodeIVarintTile(data, h, w, lanes, dst)
	case CodecRaw:
		if _, err := (rawCodec{}).RowTable(data, h, w); err != nil {
			return err
		}
		for r := 0; r < h; r++ {
			for c0 := 0; c0 < w; c0 += lanes {
				out := dst[matrix.LaneIndex(r, c0, h, w, lanes):][:min(lanes, w-c0)]
				for i := range out {
					switch v := math.Float64frombits(binary.LittleEndian.Uint64(data[matrix.HeaderLen+8*(r*w+c0+i):])); {
					case math.IsInf(v, 1):
						out[i] = matrix.NoPath32
					case v >= 0 && v < matrix.NoPath32 && v == math.Trunc(v):
						out[i] = uint32(v)
					default:
						return fmt.Errorf("%w: raw value %v is no uint32 distance", ErrCodecData, v)
					}
				}
			}
		}
		return nil
	}
	return fmt.Errorf("%w: codec %s does not decode to exact integers", ErrCodecData, codecName(codec))
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
// them are in the cell's range (decodeIVarintWords). Every other token —
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

// f32Codec: the values downcast to float32, 2x denser than raw and
// lossy. The encoder measures the worst relative error of the round
// trip and declines the tile when it exceeds MaxRelErr, so every
// f32-coded tile in a store is within the bound; the observed maximum
// is recorded in the tile header.
type f32Codec struct {
	// MaxRelErr bounds |f64(f32(v)) - v| / max(|v|, 1) per value.
	MaxRelErr float64
}

func (f32Codec) ID() byte     { return CodecF32 }
func (f32Codec) Name() string { return "f32" }

func (c f32Codec) EncodeTile(dst []byte, tile *matrix.Block) ([]byte, bool) {
	bound := c.MaxRelErr
	if bound <= 0 {
		bound = F32DefaultMaxRelErr
	}
	// Error pass first: a declined tile must cost no appends. +Inf
	// round-trips exactly; NaN and values past float32 range do not.
	maxRel := 0.0
	for _, v := range tile.Data {
		if math.IsInf(v, 1) {
			continue
		}
		back := float64(float32(v))
		rel := math.Abs(back-v) / math.Max(math.Abs(v), 1)
		if math.IsNaN(rel) || rel > bound {
			return dst, false
		}
		if rel > maxRel {
			maxRel = rel
		}
	}
	dst = putCodecHeader(dst, magicF32, tile.R, tile.C)
	dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(maxRel)))
	for _, v := range tile.Data {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(v)))
	}
	return dst, true
}

func (f32Codec) RowTable(data []byte, h, w int) (*RowTable, error) {
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
}

func (f32Codec) RowSpan(_ *RowTable, w, r int) (off, n int) {
	return f32HdrLen + r*w*4, w * 4
}

func (f32Codec) DecodeRow(_ *RowTable, span []byte, _ int, dst []float64) error {
	if err := checkRowSpan(span, dst, 4); err != nil {
		return err
	}
	for i := range dst {
		dst[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(span[4*i:])))
	}
	return nil
}

func (c f32Codec) DecodeTile(data []byte, h, w int) (*matrix.Block, error) {
	if _, err := c.RowTable(data, h, w); err != nil {
		return nil, err
	}
	blk := matrix.New(h, w)
	// A tile is its rows back to back: decode them as one row of h*w.
	return blk, c.DecodeRow(nil, data[f32HdrLen:], 0, blk.Data)
}

// TileMaxRelErr reads the recorded maximum relative error out of an
// f32 tile payload (0 for every exact codec).
func TileMaxRelErr(codec byte, data []byte) float64 {
	if codec != CodecF32 || len(data) < f32HdrLen {
		return 0
	}
	return float64(math.Float32frombits(binary.LittleEndian.Uint32(data[codecHdrLen:])))
}
