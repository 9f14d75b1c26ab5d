package graph

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"apspark/internal/matrix"
)

// BlockKey identifies block (I, J) of the 2D-decomposed adjacency matrix.
// The distributed solvers keep only the upper triangle (I <= J), deriving
// A_JI by transposition on demand (paper §4).
type BlockKey struct {
	I, J int
}

// String renders the key the way the paper writes it.
func (k BlockKey) String() string { return fmt.Sprintf("(%d,%d)", k.I, k.J) }

// Decomposition describes a q x q block decomposition of an n x n matrix
// with block edge b (the last row/column of blocks may be ragged when
// b does not divide n).
type Decomposition struct {
	N int // matrix order
	B int // block edge
	Q int // number of block rows/cols: ceil(N/B)
}

// DefaultBlockSize resolves a requested 2D-decomposition block size
// against matrix order n: a non-positive b falls back to preferred (the
// caller's policy default — n/8 for solves, 256 for store tiles), and the
// result is clamped to [1, n] so it always satisfies NewDecomposition.
// The facade's block-size defaults (solve: n/8, store tiles: 256) route
// through here so their clamping rules cannot drift apart. The solve
// path only calls it for the automatic default — explicit solve sizes
// are rejected by NewDecomposition — while the store-tile path also
// clamps explicit oversize values, matching store.Write's own clamp.
func DefaultBlockSize(b, n, preferred int) int {
	if b <= 0 {
		b = preferred
	}
	if b > n && n > 0 {
		b = n
	}
	if b < 1 {
		b = 1
	}
	return b
}

// NewDecomposition validates and builds a decomposition.
func NewDecomposition(n, b int) (Decomposition, error) {
	if n <= 0 {
		return Decomposition{}, fmt.Errorf("graph: matrix order %d must be positive", n)
	}
	if b <= 0 || b > n {
		return Decomposition{}, fmt.Errorf("graph: block size %d outside [1,%d]", b, n)
	}
	return Decomposition{N: n, B: b, Q: (n + b - 1) / b}, nil
}

// Rows returns the number of rows in block-row I.
func (d Decomposition) Rows(i int) int {
	if i == d.Q-1 {
		return d.N - (d.Q-1)*d.B
	}
	return d.B
}

// RowOffset returns the first global row index of block-row I.
func (d Decomposition) RowOffset(i int) int { return i * d.B }

// NumUpperBlocks returns the number of stored (upper-triangular) blocks.
func (d Decomposition) NumUpperBlocks() int { return d.Q * (d.Q + 1) / 2 }

// UpperKeys enumerates all stored block keys in row-major order.
func (d Decomposition) UpperKeys() []BlockKey {
	keys := make([]BlockKey, 0, d.NumUpperBlocks())
	for i := 0; i < d.Q; i++ {
		for j := i; j < d.Q; j++ {
			keys = append(keys, BlockKey{i, j})
		}
	}
	return keys
}

// BlockOf maps a global vertex index to its block row/column.
func (d Decomposition) BlockOf(v int) int { return v / d.B }

// Blocks carves the dense matrix a into the decomposition's upper-triangle
// blocks. The input must be d.N x d.N.
func Blocks(a *matrix.Block, d Decomposition) (map[BlockKey]*matrix.Block, error) {
	if a.R != d.N || a.C != d.N {
		return nil, fmt.Errorf("graph: matrix %dx%d does not match decomposition order %d", a.R, a.C, d.N)
	}
	out := make(map[BlockKey]*matrix.Block, d.NumUpperBlocks())
	for i := 0; i < d.Q; i++ {
		for j := i; j < d.Q; j++ {
			ri, cj := d.Rows(i), d.Rows(j)
			blk := matrix.NewZero(ri, cj) // every row is copied over below
			for r := 0; r < ri; r++ {
				srcRow := (d.RowOffset(i) + r) * a.C
				copy(blk.Data[r*cj:(r+1)*cj], a.Data[srcRow+d.RowOffset(j):srcRow+d.RowOffset(j)+cj])
			}
			out[BlockKey{i, j}] = blk
		}
	}
	return out, nil
}

// PhantomBlocks builds the upper-triangle block set with phantom payloads —
// the input to paper-scale virtual runs, where only shapes and byte sizes
// matter.
func PhantomBlocks(d Decomposition) map[BlockKey]*matrix.Block {
	out := make(map[BlockKey]*matrix.Block, d.NumUpperBlocks())
	for i := 0; i < d.Q; i++ {
		for j := i; j < d.Q; j++ {
			out[BlockKey{i, j}] = matrix.NewPhantom(d.Rows(i), d.Rows(j))
		}
	}
	return out
}

// Blocks builds the decomposition's upper-triangle blocks of the graph's
// adjacency matrix (0 on the diagonal, +Inf for absent edges) straight from
// the CSR arrays: the blocks Blocks(g.Dense(), d) returns, without the
// n x n intermediate. Block rows are filled on all host workers.
func (g *Graph) Blocks(d Decomposition) (map[BlockKey]*matrix.Block, error) {
	if g.N != d.N {
		return nil, fmt.Errorf("graph: %d vertices do not match decomposition order %d", g.N, d.N)
	}
	rows := make([][]*matrix.Block, d.Q) // rows[i][j-i] is block (i, j)
	forEachBlockRow(runtime.GOMAXPROCS(0), d.Q, func(i int) {
		ri, off := d.Rows(i), d.RowOffset(i)
		row := make([]*matrix.Block, d.Q-i)
		for j := range row {
			row[j] = matrix.New(ri, d.Rows(i+j))
		}
		for r := 0; r < ri; r++ {
			u := off + r
			row[0].Data[r*ri+r] = 0
			for p := g.rowPtr[u]; p < g.rowPtr[u+1]; p++ {
				v := int(g.colIdx[p])
				if v < off {
					continue // below the diagonal block: stored as its mirror image
				}
				blk := row[v/d.B-i]
				if cell := &blk.Data[r*blk.C+v%d.B]; g.weights[p] < *cell {
					*cell = g.weights[p]
				}
			}
		}
		rows[i] = row
	})
	out := make(map[BlockKey]*matrix.Block, d.NumUpperBlocks())
	for i, row := range rows {
		for j, blk := range row {
			out[BlockKey{i, i + j}] = blk
		}
	}
	return out, nil
}

// forEachBlockRow calls fn(i) once for every i in [0, q), from up to
// workers goroutines drawing from a shared counter (block rows of an upper
// triangle are unequal work), and returns when all calls have.
func forEachBlockRow(workers, q int, fn func(i int)) {
	if workers = min(workers, q); workers < 2 {
		for i := 0; i < q; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < q; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Assemble reverses Blocks: it stitches upper-triangle blocks back into a
// full symmetric dense matrix. Each block's rows are copied into place, and
// an off-diagonal block is mirrored below the diagonal by copying the rows
// of its (tiled) transpose. Diagonal blocks are taken as they are: every
// solver keeps them symmetric. The block rows of the result are disjoint,
// so they are filled on all host workers.
func Assemble(blocks map[BlockKey]*matrix.Block, d Decomposition) (*matrix.Block, error) {
	return assembleOn(runtime.GOMAXPROCS(0), blocks, d)
}

func assembleOn(workers int, blocks map[BlockKey]*matrix.Block, d Decomposition) (*matrix.Block, error) {
	for i := 0; i < d.Q; i++ {
		for j := i; j < d.Q; j++ {
			blk, ok := blocks[BlockKey{i, j}]
			if !ok {
				return nil, fmt.Errorf("graph: missing block (%d,%d)", i, j)
			}
			if blk.Phantom() {
				return nil, fmt.Errorf("graph: cannot assemble phantom block (%d,%d)", i, j)
			}
			if blk.R != d.Rows(i) || blk.C != d.Rows(j) {
				return nil, fmt.Errorf("graph: block (%d,%d) is %dx%d, want %dx%d", i, j, blk.R, blk.C, d.Rows(i), d.Rows(j))
			}
		}
	}
	a := matrix.NewZero(d.N, d.N) // every cell is written below
	place := func(blk *matrix.Block, r0, c0 int) {
		for r := 0; r < blk.R; r++ {
			copy(a.Data[(r0+r)*d.N+c0:], blk.Row(r))
		}
	}
	// Block row i of the result is the mirrored blocks (j, i), j < i, then
	// the stored blocks (i, j), j >= i.
	forEachBlockRow(workers, d.Q, func(i int) {
		for j := 0; j < i; j++ {
			blk := blocks[BlockKey{j, i}]
			t := matrix.Get(blk.C, blk.R)
			_ = blk.TransposeInto(t) // dense, and shaped to fit
			place(t, d.RowOffset(i), d.RowOffset(j))
			matrix.Put(t)
		}
		for j := i; j < d.Q; j++ {
			place(blocks[BlockKey{i, j}], d.RowOffset(i), d.RowOffset(j))
		}
	})
	return a, nil
}
