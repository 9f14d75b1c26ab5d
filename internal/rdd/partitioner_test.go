package rdd

import (
	"testing"
	"testing/quick"

	"apspark/internal/graph"
	"apspark/internal/pyhash"
)

func TestPortableHashMatchesPyhash(t *testing.T) {
	p := NewPortableHash(64)
	k := graph.BlockKey{I: 3, J: 17}
	want := pyhash.Mod(pyhash.Tuple2(3, 17), 64)
	if got := p.Partition(k); got != want {
		t.Fatalf("PH partition = %d, want %d", got, want)
	}
	if p.Name() != "PH" || p.NumPartitions() != 64 {
		t.Fatal("PH metadata wrong")
	}
}

func TestMultiDiagonalRange(t *testing.T) {
	p := NewMultiDiagonal(10, 16)
	if p.Name() != "MD" || p.NumPartitions() != 10 {
		t.Fatal("MD metadata wrong")
	}
	f := func(i, j uint8) bool {
		k := graph.BlockKey{I: int(i % 16), J: int(j % 16)}
		got := p.Partition(k)
		return got >= 0 && got < 10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiDiagonalBalance(t *testing.T) {
	// Enumerating all upper-triangular keys, partition cardinalities must
	// differ by at most 1 (the rank enumeration is a bijection).
	for _, cfg := range [][2]int{{16, 8}, {32, 7}, {9, 4}, {64, 64}} {
		q, parts := cfg[0], cfg[1]
		p := NewMultiDiagonal(parts, q)
		counts := make([]int, parts)
		for i := 0; i < q; i++ {
			for j := i; j < q; j++ {
				counts[p.Partition(graph.BlockKey{I: i, J: j})]++
			}
		}
		mn, mx := counts[0], counts[0]
		for _, c := range counts {
			if c < mn {
				mn = c
			}
			if c > mx {
				mx = c
			}
		}
		if mx-mn > 1 {
			t.Fatalf("q=%d parts=%d: MD imbalance %d..%d", q, parts, mn, mx)
		}
	}
}

func TestMultiDiagonalMirrorsLowerTriangle(t *testing.T) {
	p := NewMultiDiagonal(8, 16)
	for i := 0; i < 16; i++ {
		for j := i; j < 16; j++ {
			up := p.Partition(graph.BlockKey{I: i, J: j})
			lo := p.Partition(graph.BlockKey{I: j, J: i})
			if up != lo {
				t.Fatalf("(%d,%d) and (%d,%d) in different partitions", i, j, j, i)
			}
		}
	}
}

func TestMultiDiagonalSpreadsRowsAndColumns(t *testing.T) {
	// Blocks of any one block-row must not pile into one partition — the
	// property Phase 2 of the blocked solvers depends on (paper §5.3).
	q, parts := 32, 8
	p := NewMultiDiagonal(parts, q)
	for i := 0; i < q; i++ {
		seen := map[int]bool{}
		blocks := 0
		for j := i; j < q; j++ {
			seen[p.Partition(graph.BlockKey{I: i, J: j})] = true
			blocks++
		}
		want := parts
		if blocks < want {
			want = blocks
		}
		if len(seen) < (want+1)/2 {
			t.Fatalf("row %d: %d blocks concentrated in %d partitions", i, blocks, len(seen))
		}
	}
}

func TestPortableHashSkewVersusMD(t *testing.T) {
	// The paper's Figure 3 (bottom): PH partition sizes are visibly skewed
	// on upper-triangular keys while MD is flat. Quantify via max/min.
	q, parts := 64, 32
	ph := NewPortableHash(parts)
	md := NewMultiDiagonal(parts, q)
	phc := make([]int, parts)
	mdc := make([]int, parts)
	for i := 0; i < q; i++ {
		for j := i; j < q; j++ {
			phc[ph.Partition(graph.BlockKey{I: i, J: j})]++
			mdc[md.Partition(graph.BlockKey{I: i, J: j})]++
		}
	}
	spread := func(c []int) int {
		mn, mx := c[0], c[0]
		for _, v := range c {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		return mx - mn
	}
	if spread(mdc) > 1 {
		t.Fatalf("MD spread = %d", spread(mdc))
	}
	if spread(phc) <= spread(mdc) {
		t.Fatalf("PH spread %d not worse than MD %d — skew reproduction failed", spread(phc), spread(mdc))
	}
}

func TestModuloPartitioner(t *testing.T) {
	p := Modulo{Parts: 4}
	if p.Partition(key(7)) != 3 || p.Partition(key(-1)) != 3 {
		t.Fatal("modulo semantics wrong")
	}
	if p.Partition(graph.BlockKey{I: 1, J: 2}) != 3 {
		t.Fatal("block key modulo wrong")
	}
}
