package matrix

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Serialization layout (little-endian):
//
//	[0]     magic byte 0xB1 (dense) or 0xB0 (phantom)
//	[1:5]   uint32 rows
//	[5:9]   uint32 cols
//	[9:]    rows*cols float64 bits (dense only)
//
// The format mirrors what the paper's pySpark code does with NumPy
// `tofile`: a raw row-major dump with a tiny header, cheap enough that the
// shared-storage staging path is dominated by bandwidth, not encoding.
//
// Unmarshal accepts arbitrary (possibly hostile) input: every slice access
// is preceded by a length check computed in overflow-safe uint64
// arithmetic, and malformed buffers produce errors, never panics. The
// persistent tiled store feeds it bytes straight off disk, so truncated or
// corrupt files must surface as errors.

const (
	magicDense   = 0xB1
	magicPhantom = 0xB0
	headerLen    = 9
)

// HeaderLen is the number of bytes of Marshal header preceding the
// row-major float64 payload of a dense block. Readers that compute direct
// payload offsets (the tiled store's row-span reads) need it to locate a
// row without decoding the whole block.
const HeaderLen = headerLen

// DenseMarshaledSize returns the number of bytes Marshal produces for a
// dense r x c block, letting writers lay out file offsets from shapes
// alone, before any block exists.
func DenseMarshaledSize(r, c int) int64 {
	return headerLen + 8*int64(r)*int64(c)
}

// ValidateDenseHeader checks that buf begins with the Marshal header of a
// dense r x c block. Span readers call it once per block before trusting
// computed payload offsets, so a corrupt or misplaced block surfaces as an
// error instead of silently decoding garbage floats.
func ValidateDenseHeader(buf []byte, r, c int) error {
	if len(buf) < headerLen {
		return fmt.Errorf("matrix: short header (%d bytes, need %d)", len(buf), headerLen)
	}
	if buf[0] != magicDense {
		return fmt.Errorf("matrix: bad magic byte %#x, want dense %#x", buf[0], magicDense)
	}
	gr := int(binary.LittleEndian.Uint32(buf[1:5]))
	gc := int(binary.LittleEndian.Uint32(buf[5:9]))
	if gr != r || gc != c {
		return fmt.Errorf("matrix: header says %dx%d, want %dx%d", gr, gc, r, c)
	}
	return nil
}

// MarshaledSize returns the exact number of bytes Marshal produces for the
// block.
func (b *Block) MarshaledSize() int64 {
	if b.Phantom() {
		return headerLen
	}
	return headerLen + 8*int64(len(b.Data))
}

// AppendMarshal encodes the block and appends the bytes to dst, returning
// the extended slice. Passing a reused buffer keeps tile-at-a-time writers
// allocation-free in steady state.
func (b *Block) AppendMarshal(dst []byte) []byte {
	if b.Phantom() {
		return appendHeader(dst, magicPhantom, b.R, b.C)
	}
	dst = AppendDenseHeader(dst, b.R, b.C)
	var scratch [8]byte
	for _, v := range b.Data {
		binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(v))
		dst = append(dst, scratch[:]...)
	}
	return dst
}

// AppendDenseHeader appends the Marshal header of a dense r x c block, for
// a writer that appends the row-major float64 payload itself.
func AppendDenseHeader(dst []byte, r, c int) []byte {
	return appendHeader(dst, magicDense, r, c)
}

func appendHeader(dst []byte, magic byte, r, c int) []byte {
	dst = append(dst, magic)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r))
	return binary.LittleEndian.AppendUint32(dst, uint32(c))
}

// Marshal encodes the block into a fresh byte slice.
func (b *Block) Marshal() []byte {
	return b.AppendMarshal(make([]byte, 0, b.MarshaledSize()))
}

// Unmarshal decodes a block previously produced by Marshal. It never
// panics on truncated or corrupt input: the header is validated before the
// payload is touched, and the payload length must match the header's shape
// exactly (computed without integer overflow).
func Unmarshal(buf []byte) (*Block, error) {
	if len(buf) < headerLen {
		return nil, fmt.Errorf("matrix: short buffer (%d bytes, need at least %d)", len(buf), headerLen)
	}
	r := int(binary.LittleEndian.Uint32(buf[1:5]))
	c := int(binary.LittleEndian.Uint32(buf[5:9]))
	switch buf[0] {
	case magicPhantom:
		if len(buf) != headerLen {
			return nil, fmt.Errorf("matrix: phantom %dx%d has %d trailing bytes", r, c, len(buf)-headerLen)
		}
		return NewPhantom(r, c), nil
	case magicDense:
		// Overflow-safe length check: r and c are up to 2^32-1, so their
		// product fits uint64 exactly but 8*r*c can wrap (r=2^31, c=2^30
		// wraps to 0); divide the payload instead of multiplying the shape
		// so a forged header can never alias a small buffer.
		rc := uint64(r) * uint64(c)
		payload := uint64(len(buf) - headerLen)
		if payload%8 != 0 || payload/8 != rc {
			return nil, fmt.Errorf("matrix: dense %dx%d needs %d payload bytes, got %d", r, c, rc*8, payload)
		}
		b := &Block{R: r, C: c, Data: make([]float64, r*c)}
		for i := range b.Data {
			b.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[headerLen+8*i:]))
		}
		return b, nil
	default:
		return nil, fmt.Errorf("matrix: bad magic byte %#x", buf[0])
	}
}
