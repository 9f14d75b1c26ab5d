package matrix

import "fmt"

// tile is the cache-blocking tile edge for the min-plus product. 64x64
// float64 tiles (3 x 32 KiB) keep the working set inside L1/L2 on common
// hardware; the exact value only affects constants, not results.
// Re-measured against the vector primitive with the b tile packed (k x j
// tile shape, b=256 / b=512, ms): 64x64 1.11 / 15.7, 32x64 1.22 / 18.4,
// 64x32 1.15 / 15.2, 32x128 1.36 / 14.7, 128x32 1.24 / 12.9, 16x256 1.17 /
// 14.2 — 64x64 stays: best at the solvers' b=256, mid-field at 512.
const tile = 64

// MatMin returns the element-wise minimum of a and b (paper Table 1:
// MatMin). Shapes must match. If either operand is phantom the result is
// phantom.
func MatMin(a, b *Block) (*Block, error) {
	if a.R != b.R || a.C != b.C {
		return nil, fmt.Errorf("matrix: MatMin shape mismatch %dx%d vs %dx%d", a.R, a.C, b.R, b.C)
	}
	if a.Phantom() || b.Phantom() {
		return NewPhantom(a.R, a.C), nil
	}
	out := &Block{R: a.R, C: a.C, Data: make([]float64, len(a.Data))}
	for i, v := range a.Data {
		w := b.Data[i]
		if w < v {
			out.Data[i] = w
		} else {
			out.Data[i] = v
		}
	}
	return out, nil
}

// MatMinInPlace folds b into a element-wise (a = min(a, b)).
func MatMinInPlace(a, b *Block) error {
	if a.R != b.R || a.C != b.C {
		return fmt.Errorf("matrix: MatMinInPlace shape mismatch %dx%d vs %dx%d", a.R, a.C, b.R, b.C)
	}
	if a.Phantom() || b.Phantom() {
		return nil
	}
	for i, w := range b.Data {
		if w < a.Data[i] {
			a.Data[i] = w
		}
	}
	return nil
}

// MinPlusMul returns the min-plus product a (x) b (paper Table 1: MatProd):
// out[i][j] = min_k a[i][k] + b[k][j]. Inner dimensions must agree. The
// loop nest is i-k-j with 2D tiling so the b panel is streamed row-wise,
// and rows of a equal to +Inf short-circuit.
func MinPlusMul(a, b *Block) (*Block, error) {
	if a.C != b.R {
		return nil, fmt.Errorf("matrix: MinPlusMul inner dim mismatch %dx%d vs %dx%d", a.R, a.C, b.R, b.C)
	}
	if a.Phantom() || b.Phantom() {
		return NewPhantom(a.R, b.C), nil
	}
	out := New(a.R, b.C)
	for kk := 0; kk < a.C; kk += tile {
		kmax := min(kk+tile, a.C)
		for jj := 0; jj < b.C; jj += tile {
			jmax := min(jj+tile, b.C)
			for i := 0; i < a.R; i++ {
				arow := a.Data[i*a.C : (i+1)*a.C]
				orow := out.Data[i*out.C : (i+1)*out.C]
				for k := kk; k < kmax; k++ {
					aik := arow[k]
					if aik == Inf {
						continue
					}
					brow := b.Data[k*b.C : (k+1)*b.C]
					for j := jj; j < jmax; j++ {
						if s := aik + brow[j]; s < orow[j] {
							orow[j] = s
						}
					}
				}
			}
		}
	}
	return out, nil
}

// FloydWarshall runs the classic O(r^3) Floyd-Warshall kernel in place on a
// square block (paper Table 1: FloydWarshall). The diagonal is clamped to 0
// first, matching the convention that a vertex reaches itself at cost 0.
// Phantom blocks are left untouched. Each pivot is one fwRelax sweep, so
// the inner loop is the shared row primitive (see fused.go).
func FloydWarshall(a *Block) error {
	if a.R != a.C {
		return fmt.Errorf("matrix: FloydWarshall needs a square block, got %dx%d", a.R, a.C)
	}
	if a.Phantom() {
		return nil
	}
	n := a.R
	for i := 0; i < n; i++ {
		if a.Data[i*n+i] > 0 {
			a.Data[i*n+i] = 0
		}
	}
	for k := 0; k < n; k++ {
		fwRelax(a.Data, n, 0, n, 0, n, k)
	}
	return nil
}

// FloydWarshallUpdate applies the 2D Floyd-Warshall inner update to block
// a (paper Table 1: FloydWarshallUpdate): a[i][j] = min(a[i][j],
// colI[i] + colJ[j]), where colI is column k of A restricted to this
// block's row range and colJ is column k restricted to its column range
// (symmetry of A makes column k serve as row k). Vectors must match the
// block's shape.
func FloydWarshallUpdate(a *Block, colI, colJ []float64) error {
	if len(colI) != a.R || len(colJ) != a.C {
		return fmt.Errorf("matrix: FloydWarshallUpdate vector sizes %d,%d vs block %dx%d", len(colI), len(colJ), a.R, a.C)
	}
	if a.Phantom() {
		return nil
	}
	for i := 0; i < a.R; i++ {
		if colI[i] == Inf {
			continue
		}
		minPlusRow(a.Data[i*a.C:(i+1)*a.C], colI[i:i+1], colJ, 0)
	}
	return nil
}
