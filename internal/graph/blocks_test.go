package graph

import (
	"math/rand"
	"testing"

	"apspark/internal/matrix"
)

func TestNewDecomposition(t *testing.T) {
	d, err := NewDecomposition(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d.Q != 4 {
		t.Fatalf("Q = %d, want 4", d.Q)
	}
	if d.Rows(0) != 3 || d.Rows(3) != 1 {
		t.Fatalf("ragged rows: %d, %d", d.Rows(0), d.Rows(3))
	}
	if d.NumUpperBlocks() != 10 {
		t.Fatalf("NumUpperBlocks = %d, want 10", d.NumUpperBlocks())
	}
	for _, bad := range [][2]int{{0, 1}, {5, 0}, {5, 6}, {-1, 1}} {
		if _, err := NewDecomposition(bad[0], bad[1]); err == nil {
			t.Fatalf("NewDecomposition(%d,%d) accepted", bad[0], bad[1])
		}
	}
}

func TestDecompositionExactDivision(t *testing.T) {
	d, _ := NewDecomposition(12, 4)
	if d.Q != 3 || d.Rows(2) != 4 {
		t.Fatalf("exact division: Q=%d last=%d", d.Q, d.Rows(2))
	}
}

func TestBlockOf(t *testing.T) {
	d, _ := NewDecomposition(10, 3)
	cases := map[int]int{0: 0, 2: 0, 3: 1, 8: 2, 9: 3}
	for v, want := range cases {
		if got := d.BlockOf(v); got != want {
			t.Fatalf("BlockOf(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestUpperKeysOrder(t *testing.T) {
	d, _ := NewDecomposition(6, 2)
	keys := d.UpperKeys()
	want := []BlockKey{{0, 0}, {0, 1}, {0, 2}, {1, 1}, {1, 2}, {2, 2}}
	if len(keys) != len(want) {
		t.Fatalf("len = %d, want %d", len(keys), len(want))
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys[%d] = %v, want %v", i, keys[i], want[i])
		}
	}
}

func TestBlocksAssembleRoundTrip(t *testing.T) {
	for _, cfg := range [][2]int{{8, 3}, {9, 3}, {5, 5}, {7, 2}, {1, 1}} {
		n, b := cfg[0], cfg[1]
		g, err := ErdosRenyi(n, 0.5, 10, int64(n*100+b))
		if err != nil {
			t.Fatal(err)
		}
		dense := g.Dense()
		d, _ := NewDecomposition(n, b)
		blocks, err := Blocks(dense, d)
		if err != nil {
			t.Fatal(err)
		}
		if len(blocks) != d.NumUpperBlocks() {
			t.Fatalf("n=%d b=%d: %d blocks, want %d", n, b, len(blocks), d.NumUpperBlocks())
		}
		back, err := Assemble(blocks, d)
		if err != nil {
			t.Fatal(err)
		}
		if !back.Equal(dense) {
			t.Fatalf("n=%d b=%d: assemble(blocks(A)) != A", n, b)
		}
	}
}

// TestAssembleMatchesNaive checks Assemble against its cell-by-cell
// definition (upper blocks in place, lower triangle mirrored) on blocks
// with arbitrary contents and ragged shapes, including the k x 1 and 1 x k
// edge blocks of n = k+1.
func TestAssembleMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, cfg := range [][2]int{{1, 1}, {10, 9}, {34, 33}, {67, 33}, {70, 70}, {100, 37}, {130, 32}} {
		n, b := cfg[0], cfg[1]
		d, err := NewDecomposition(n, b)
		if err != nil {
			t.Fatal(err)
		}
		blocks := make(map[BlockKey]*matrix.Block)
		want := matrix.New(n, n)
		for _, k := range d.UpperKeys() {
			blk := matrix.New(d.Rows(k.I), d.Rows(k.J))
			for r := 0; r < blk.R; r++ {
				for c := 0; c < blk.C; c++ {
					v := rng.Float64()
					if k.I == k.J && c < r {
						v = blk.At(c, r) // diagonal blocks are symmetric
					}
					blk.Set(r, c, v)
					want.Set(d.RowOffset(k.I)+r, d.RowOffset(k.J)+c, v)
					want.Set(d.RowOffset(k.J)+c, d.RowOffset(k.I)+r, v)
				}
			}
			blocks[k] = blk
		}
		got, err := Assemble(blocks, d)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("n=%d b=%d: Assemble differs from its definition", n, b)
		}
	}
}

func TestBlocksShapeMismatch(t *testing.T) {
	d, _ := NewDecomposition(4, 2)
	if _, err := Blocks(matrix.New(3, 3), d); err == nil {
		t.Fatal("mismatched matrix accepted")
	}
}

func TestAssembleErrors(t *testing.T) {
	d, _ := NewDecomposition(4, 2)
	blocks := map[BlockKey]*matrix.Block{}
	if _, err := Assemble(blocks, d); err == nil {
		t.Fatal("missing block accepted")
	}
	blocks = PhantomBlocks(d)
	if _, err := Assemble(blocks, d); err == nil {
		t.Fatal("phantom block accepted in Assemble")
	}
	g, _ := ErdosRenyi(4, 1, 10, 1)
	real, _ := Blocks(g.Dense(), d)
	real[BlockKey{0, 1}] = matrix.New(3, 3)
	if _, err := Assemble(real, d); err == nil {
		t.Fatal("wrong-shape block accepted")
	}
}

func TestPhantomBlocks(t *testing.T) {
	d, _ := NewDecomposition(10, 4)
	blocks := PhantomBlocks(d)
	if len(blocks) != d.NumUpperBlocks() {
		t.Fatalf("phantom block count = %d", len(blocks))
	}
	last := blocks[BlockKey{2, 2}]
	if !last.Phantom() || last.R != 2 || last.C != 2 {
		t.Fatalf("ragged phantom = %v", last)
	}
	var total int64
	for _, b := range blocks {
		total += b.SizeBytes()
	}
	// Upper triangle of 10x10 floats: 10*10*8 = 800 total; upper incl diag
	// has 55+3*... compute directly: sum over blocks equals bytes of upper
	// blocks which cover diagonal blocks fully.
	if total <= 0 || total > 800 {
		t.Fatalf("phantom byte total = %d out of range", total)
	}
}

// TestGraphBlocksMatchDense holds the CSR-built blocks to the definition
// Blocks(g.Dense(), d): duplicate edges (FromEdges keeps the lightest),
// self-loops, isolated vertices, zero weights, ragged decompositions, one
// block (b = n) and n smaller than a typical b.
func TestGraphBlocksMatchDense(t *testing.T) {
	handmade, err := FromEdges(9, []Edge{
		{U: 0, V: 1, W: 4}, {U: 1, V: 0, W: 2}, {U: 0, V: 1, W: 7}, // duplicates, both directions
		{U: 3, V: 3, W: 1}, // self-loop
		{U: 2, V: 8, W: 0}, // zero weight across the corner block
		{U: 7, V: 4, W: 3},
		// vertices 5 and 6 are isolated
	})
	if err != nil {
		t.Fatal(err)
	}
	graphs := []*Graph{handmade}
	for _, n := range []int{1, 2, 17, 64, 100} {
		g, err := ErdosRenyi(n, 0.3, 10, int64(n))
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	for _, g := range graphs {
		for _, b := range []int{1, 2, 3, 16, 33, g.N} {
			if b > g.N {
				continue
			}
			d, err := NewDecomposition(g.N, b)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Blocks(g.Dense(), d)
			if err != nil {
				t.Fatal(err)
			}
			got, err := g.Blocks(d)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("n=%d b=%d: %d blocks, want %d", g.N, b, len(got), len(want))
			}
			for k, w := range want {
				if !got[k].Equal(w) {
					t.Fatalf("n=%d b=%d: block %v differs from Blocks(g.Dense())", g.N, b, k)
				}
			}
		}
	}
	if _, err := handmade.Blocks(Decomposition{N: 8, B: 4, Q: 2}); err == nil {
		t.Fatal("decomposition of another order accepted")
	}
}

// TestAssembleParallelMatchesSerial fills the block rows from one worker
// and from several, whatever GOMAXPROCS is here.
func TestAssembleParallelMatchesSerial(t *testing.T) {
	for _, cfg := range [][2]int{{1, 1}, {70, 70}, {100, 37}, {130, 32}, {257, 16}} {
		n, b := cfg[0], cfg[1]
		g, err := ErdosRenyi(n, 0.3, 10, int64(n))
		if err != nil {
			t.Fatal(err)
		}
		d, _ := NewDecomposition(n, b)
		blocks, err := g.Blocks(d)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := assembleOn(1, blocks, d)
		if err != nil {
			t.Fatal(err)
		}
		if !serial.Equal(g.Dense()) {
			t.Fatalf("n=%d b=%d: serial assemble differs from the dense matrix", n, b)
		}
		for _, workers := range []int{2, 5, 64} {
			par, err := assembleOn(workers, blocks, d)
			if err != nil {
				t.Fatal(err)
			}
			if !par.Equal(serial) {
				t.Fatalf("n=%d b=%d workers=%d: parallel assemble differs from serial", n, b, workers)
			}
		}
	}
}
