// Package matrix provides dense, row-major distance-matrix blocks and the
// min-plus (tropical) semiring kernels used by every APSP solver in this
// repository: element-wise minimum, min-plus matrix product, the
// Floyd-Warshall kernel, and the rank-1 "outer sum" Floyd-Warshall update.
//
// Blocks exist in two flavours sharing one type:
//
//   - dense blocks carry data and are used when a solver runs "for real";
//   - phantom blocks carry only their shape and are used by the virtual
//     cluster, where kernel invocations charge calibrated costs to a
//     simulated clock instead of touching floats.
//
// The infinity value for "no path" is math.Inf(1); kernels are written so
// that +Inf behaves as the additive annihilator / minimum identity of the
// semiring without special-casing NaN.
package matrix

import (
	"fmt"
	"math"
	"unsafe"
)

// Inf is the distance value representing "no path".
var Inf = math.Inf(1)

// NoPath32 is "no path" in a uint32 distance cell, the cell type of the
// sparse solve's integer panels. Every other value of such a cell is an
// exact integer distance and reads as float64 of itself; NoPath32 reads
// as Inf.
const NoPath32 = math.MaxUint32

// Cell is the type of a distance cell: float64 on any graph, Inf for no
// path, or uint32 where every distance is an integer below NoPath32, which
// is no path.
type Cell interface{ float64 | uint32 }

// NoPath is the cell value of no path: Inf, or NoPath32.
func NoPath[C Cell]() C {
	if unsafe.Sizeof(C(0)) == 4 {
		return C(NoPath32)
	}
	return C(Inf)
}

// Recast is x as a cell of type C: the same distance, or no path.
func Recast[C, S Cell](x S) C {
	if x == NoPath[S]() {
		return NoPath[C]()
	}
	return C(x)
}

// Block is a dense, row-major matrix block over the min-plus semiring.
// A Block with nil Data is a phantom: it has a shape and a byte size but no
// elements. Phantom blocks flow through the same solver code paths as dense
// ones; kernels detect them and return phantoms. Phantoms are never
// written, so solvers pass a phantom operand through instead of copying it.
type Block struct {
	R, C int
	Data []float64 // len R*C when dense; nil when phantom
}

// New returns a dense R x C block with every element set to +Inf.
func New(r, c int) *Block {
	b := &Block{R: r, C: c, Data: make([]float64, r*c)}
	for i := range b.Data {
		b.Data[i] = Inf
	}
	return b
}

// NewZero returns a dense R x C block with every element set to 0.
func NewZero(r, c int) *Block {
	return &Block{R: r, C: c, Data: make([]float64, r*c)}
}

// NewPhantom returns a phantom block: shape only, no data.
func NewPhantom(r, c int) *Block {
	return &Block{R: r, C: c}
}

// FromRows builds a dense block from a slice of equal-length rows.
func FromRows(rows [][]float64) (*Block, error) {
	if len(rows) == 0 {
		return &Block{}, nil
	}
	r, c := len(rows), len(rows[0])
	b := &Block{R: r, C: c, Data: make([]float64, 0, r*c)}
	for i, row := range rows {
		if len(row) != c {
			return nil, fmt.Errorf("matrix: row %d has %d columns, want %d", i, len(row), c)
		}
		b.Data = append(b.Data, row...)
	}
	return b, nil
}

// Phantom reports whether the block carries no element data.
func (b *Block) Phantom() bool { return b.Data == nil }

// At returns element (i, j). It panics on phantom blocks, mirroring how an
// out-of-bounds slice access would fail: reading a phantom is a logic error.
func (b *Block) At(i, j int) float64 { return b.Data[i*b.C+j] }

// Set assigns element (i, j).
func (b *Block) Set(i, j int, v float64) { b.Data[i*b.C+j] = v }

// Row returns row i as a slice aliasing the block's storage.
func (b *Block) Row(i int) []float64 { return b.Data[i*b.C : (i+1)*b.C] }

// SizeBytes returns the serialized payload size of the block. Phantom and
// dense blocks of the same shape report the same size, which is what the
// shuffle and storage cost accounting relies on.
func (b *Block) SizeBytes() int64 { return int64(b.R) * int64(b.C) * 8 }

// Clone returns a deep copy (phantoms clone to phantoms).
func (b *Block) Clone() *Block {
	nb := &Block{R: b.R, C: b.C}
	if b.Data != nil {
		nb.Data = make([]float64, len(b.Data))
		copy(nb.Data, b.Data)
	}
	return nb
}

// CopyFrom copies o's elements into b. Shapes must match and both blocks
// must be dense; pair it with Get to clone through the arena instead of
// the heap.
func (b *Block) CopyFrom(o *Block) error {
	if b.R != o.R || b.C != o.C {
		return fmt.Errorf("matrix: CopyFrom shape mismatch %dx%d vs %dx%d", b.R, b.C, o.R, o.C)
	}
	if b.Phantom() || o.Phantom() {
		return fmt.Errorf("matrix: CopyFrom needs dense blocks")
	}
	copy(b.Data, o.Data)
	return nil
}

// ExtractInto copies the dst.R x dst.C sub-block of b anchored at element
// (r0, c0) into dst. Both blocks must be dense and the window must lie
// entirely inside b. It is the tile-extraction primitive the persistent
// store uses to cut a solved matrix into cache-friendly tiles.
func (b *Block) ExtractInto(dst *Block, r0, c0 int) error {
	if b.Phantom() || dst.Phantom() {
		return fmt.Errorf("matrix: ExtractInto needs dense blocks")
	}
	if r0 < 0 || c0 < 0 || r0+dst.R > b.R || c0+dst.C > b.C {
		return fmt.Errorf("matrix: ExtractInto window %dx%d at (%d,%d) outside %dx%d",
			dst.R, dst.C, r0, c0, b.R, b.C)
	}
	for i := 0; i < dst.R; i++ {
		src := b.Data[(r0+i)*b.C+c0:]
		copy(dst.Data[i*dst.C:(i+1)*dst.C], src[:dst.C])
	}
	return nil
}

// Transpose returns a new block that is the transpose of b.
func (b *Block) Transpose() *Block {
	if b.Phantom() {
		return NewPhantom(b.C, b.R)
	}
	t := &Block{R: b.C, C: b.R, Data: make([]float64, len(b.Data))}
	transpose(t.Data, b.Data, b.R, b.C)
	return t
}

// TransposeInto writes b's transpose into dst (which must be dense and
// C x R shaped), allocating nothing — the pooled counterpart of Transpose.
func (b *Block) TransposeInto(dst *Block) error {
	if dst.R != b.C || dst.C != b.R {
		return fmt.Errorf("matrix: TransposeInto destination is %dx%d, want %dx%d", dst.R, dst.C, b.C, b.R)
	}
	if b.Phantom() || dst.Phantom() {
		return fmt.Errorf("matrix: TransposeInto needs dense blocks")
	}
	transpose(dst.Data, b.Data, b.R, b.C)
	return nil
}

// transposeTile is the edge of the square tiles transpose works in: the 32
// source and 32 destination cache lines of a tile stay resident while all
// of their 8-element groups are consumed.
const transposeTile = 32

// transpose writes the transpose of the r x c row-major src into dst, tile
// by tile, each tile in 4x4 micro-tiles so both the loads and the stores
// come in contiguous runs of four. A plain tiled loop has to stride on one
// side, and striding on the store side is ruinous at power-of-two edges,
// where a tile's destination lines share two L1 sets (measured at 256x256:
// untiled 464 us, 32x32 strided stores 367 us, strided loads 69 us, 4x4
// micro-tiles 29 us).
func transpose(dst, src []float64, r, c int) { transposeLd(dst, r, src, c, r, c) }

// transposeLd is transpose over sub-views: the r x c source has row stride
// lds, the c x r destination row stride ldd. The two must not overlap.
func transposeLd(dst []float64, ldd int, src []float64, lds int, r, c int) {
	for jj := 0; jj < c; jj += transposeTile {
		jmax := min(jj+transposeTile, c)
		for ii := 0; ii < r; ii += transposeTile {
			imax := min(ii+transposeTile, r)
			j := jj
			for ; j+4 <= jmax; j += 4 {
				i := ii
				for ; i+4 <= imax; i += 4 {
					s0 := src[i*lds+j:][:4:4]
					s1 := src[(i+1)*lds+j:][:4:4]
					s2 := src[(i+2)*lds+j:][:4:4]
					s3 := src[(i+3)*lds+j:][:4:4]
					d0 := dst[j*ldd+i:][:4:4]
					d1 := dst[(j+1)*ldd+i:][:4:4]
					d2 := dst[(j+2)*ldd+i:][:4:4]
					d3 := dst[(j+3)*ldd+i:][:4:4]
					d0[0], d0[1], d0[2], d0[3] = s0[0], s1[0], s2[0], s3[0]
					d1[0], d1[1], d1[2], d1[3] = s0[1], s1[1], s2[1], s3[1]
					d2[0], d2[1], d2[2], d2[3] = s0[2], s1[2], s2[2], s3[2]
					d3[0], d3[1], d3[2], d3[3] = s0[3], s1[3], s2[3], s3[3]
				}
				transposeCells(dst, ldd, src, lds, i, imax, j, j+4)
			}
			transposeCells(dst, ldd, src, lds, ii, imax, j, jmax)
		}
	}
}

// transposeCells is the ragged-edge remainder of transpose: source cells
// [i0,i1) x [j0,j1), one at a time.
func transposeCells(dst []float64, ldd int, src []float64, lds int, i0, i1, j0, j1 int) {
	for j := j0; j < j1; j++ {
		for i := i0; i < i1; i++ {
			dst[j*ldd+i] = src[i*lds+j]
		}
	}
}

// Col returns a copy of column j.
func (b *Block) Col(j int) []float64 {
	out := make([]float64, b.R)
	for i := 0; i < b.R; i++ {
		out[i] = b.Data[i*b.C+j]
	}
	return out
}

// Fill sets every element of a dense block to v.
func (b *Block) Fill(v float64) {
	for i := range b.Data {
		b.Data[i] = v
	}
}

// Equal reports exact element-wise equality. Two phantoms are equal when
// their shapes match; a phantom never equals a dense block.
func (b *Block) Equal(o *Block) bool {
	if b.R != o.R || b.C != o.C {
		return false
	}
	if b.Phantom() || o.Phantom() {
		return b.Phantom() == o.Phantom()
	}
	for i, v := range b.Data {
		w := o.Data[i]
		if v != w && !(math.IsInf(v, 1) && math.IsInf(w, 1)) {
			return false
		}
	}
	return true
}

// AllClose reports element-wise equality within absolute tolerance tol,
// treating two +Inf entries as equal.
func (b *Block) AllClose(o *Block, tol float64) bool {
	if b.R != o.R || b.C != o.C || b.Phantom() != o.Phantom() {
		return false
	}
	if b.Phantom() {
		return true
	}
	for i, v := range b.Data {
		w := o.Data[i]
		if math.IsInf(v, 1) && math.IsInf(w, 1) {
			continue
		}
		if math.Abs(v-w) > tol {
			return false
		}
	}
	return true
}

// String renders small blocks for debugging; phantoms render as a shape tag.
func (b *Block) String() string {
	if b.Phantom() {
		return fmt.Sprintf("phantom[%dx%d]", b.R, b.C)
	}
	s := ""
	for i := 0; i < b.R; i++ {
		for j := 0; j < b.C; j++ {
			if j > 0 {
				s += " "
			}
			v := b.At(i, j)
			if math.IsInf(v, 1) {
				s += "inf"
			} else {
				s += fmt.Sprintf("%g", v)
			}
		}
		s += "\n"
	}
	return s
}
