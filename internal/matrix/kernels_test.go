package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveMinPlus is the O(n^3) reference product used to validate the tiled
// kernel.
func naiveMinPlus(a, b *Block) *Block {
	out := New(a.R, b.C)
	for i := 0; i < a.R; i++ {
		for j := 0; j < b.C; j++ {
			best := Inf
			for k := 0; k < a.C; k++ {
				if s := a.At(i, k) + b.At(k, j); s < best {
					best = s
				}
			}
			out.Set(i, j, best)
		}
	}
	return out
}

func TestMatMinBasic(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 5}, {Inf, 2}})
	b, _ := FromRows([][]float64{{3, 4}, {0, Inf}})
	got, err := MatMin(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := FromRows([][]float64{{1, 4}, {0, 2}})
	if !got.Equal(want) {
		t.Fatalf("MatMin =\n%v want\n%v", got, want)
	}
}

func TestMatMinShapeMismatch(t *testing.T) {
	if _, err := MatMin(New(2, 2), New(2, 3)); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	if err := MatMinInPlace(New(2, 2), New(3, 2)); err == nil {
		t.Fatal("in-place shape mismatch accepted")
	}
}

func TestMatMinPhantomPropagation(t *testing.T) {
	got, err := MatMin(NewPhantom(2, 2), New(2, 2))
	if err != nil || !got.Phantom() {
		t.Fatalf("phantom MatMin = %v, %v", got, err)
	}
	if err := MatMinInPlace(New(2, 2), NewPhantom(2, 2)); err != nil {
		t.Fatal(err)
	}
}

func TestMatMinInPlace(t *testing.T) {
	a, _ := FromRows([][]float64{{5, 1}})
	b, _ := FromRows([][]float64{{2, 3}})
	if err := MatMinInPlace(a, b); err != nil {
		t.Fatal(err)
	}
	if a.At(0, 0) != 2 || a.At(0, 1) != 1 {
		t.Fatalf("in-place min = %v", a)
	}
}

func TestMinPlusMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, shape := range [][3]int{{1, 1, 1}, {3, 4, 5}, {17, 9, 23}, {70, 70, 70}, {130, 65, 129}} {
		a := randomBlock(rng, shape[0], shape[1], 0.3)
		b := randomBlock(rng, shape[1], shape[2], 0.3)
		got, err := MinPlusMul(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(naiveMinPlus(a, b)) {
			t.Fatalf("tiled product diverges from naive at shape %v", shape)
		}
	}
}

func TestMinPlusMulDimMismatch(t *testing.T) {
	if _, err := MinPlusMul(New(2, 3), New(2, 3)); err == nil {
		t.Fatal("inner-dim mismatch accepted")
	}
}

func TestMinPlusMulPhantom(t *testing.T) {
	got, err := MinPlusMul(NewPhantom(3, 4), New(4, 2))
	if err != nil || !got.Phantom() || got.R != 3 || got.C != 2 {
		t.Fatalf("phantom product = %v, %v", got, err)
	}
}

func TestMinPlusIdentity(t *testing.T) {
	// The min-plus identity matrix has 0 on the diagonal and +Inf elsewhere.
	rng := rand.New(rand.NewSource(3))
	a := randomBlock(rng, 8, 8, 0.2)
	id := New(8, 8)
	for i := 0; i < 8; i++ {
		id.Set(i, i, 0)
	}
	left, _ := MinPlusMul(id, a)
	right, _ := MinPlusMul(a, id)
	if !left.Equal(a) || !right.Equal(a) {
		t.Fatal("identity law fails")
	}
}

func TestMinPlusAssociativityQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(12) + 1
		a := randomBlock(rng, n, n, 0.25)
		b := randomBlock(rng, n, n, 0.25)
		c := randomBlock(rng, n, n, 0.25)
		ab, _ := MinPlusMul(a, b)
		abc1, _ := MinPlusMul(ab, c)
		bc, _ := MinPlusMul(b, c)
		abc2, _ := MinPlusMul(a, bc)
		return abc1.AllClose(abc2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMinPlusDistributesOverMinQuick(t *testing.T) {
	// a (x) min(b,c) == min(a (x) b, a (x) c)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(10) + 1
		a := randomBlock(rng, n, n, 0.25)
		b := randomBlock(rng, n, n, 0.25)
		c := randomBlock(rng, n, n, 0.25)
		bc, _ := MatMin(b, c)
		lhs, _ := MinPlusMul(a, bc)
		ab, _ := MinPlusMul(a, b)
		ac, _ := MinPlusMul(a, c)
		rhs, _ := MatMin(ab, ac)
		return lhs.AllClose(rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMinCommutativeIdempotentQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(12) + 1
		a := randomBlock(rng, n, n, 0.3)
		b := randomBlock(rng, n, n, 0.3)
		ab, _ := MatMin(a, b)
		ba, _ := MatMin(b, a)
		aa, _ := MatMin(a, a)
		return ab.Equal(ba) && aa.Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMinPlusCombined(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randomBlock(rng, 6, 6, 0.3)
	b := randomBlock(rng, 6, 6, 0.3)
	dst := randomBlock(rng, 6, 6, 0.3)
	prod, _ := MinPlusMul(a, b)
	want, _ := MatMin(prod, dst)
	if err := MinPlusInto(a, b, dst); err != nil {
		t.Fatal(err)
	}
	if !dst.Equal(want) {
		t.Fatal("MinPlusInto != MatMin(MatProd, dst)")
	}
}

func TestFloydWarshallTiny(t *testing.T) {
	// 0 -1- 1 -1- 2, plus a direct 0-2 edge of weight 5: FW must find 0->2 = 2.
	a, _ := FromRows([][]float64{
		{0, 1, 5},
		{1, 0, 1},
		{5, 1, 0},
	})
	if err := FloydWarshall(a); err != nil {
		t.Fatal(err)
	}
	if a.At(0, 2) != 2 || a.At(2, 0) != 2 {
		t.Fatalf("FW missed relaxation: %v", a)
	}
}

func TestFloydWarshallClampsDiagonal(t *testing.T) {
	a := New(3, 3)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	if err := FloydWarshall(a); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if a.At(i, i) != 0 {
			t.Fatalf("diagonal (%d,%d) = %v, want 0", i, i, a.At(i, i))
		}
	}
}

func TestFloydWarshallDisconnected(t *testing.T) {
	a := New(4, 4)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(2, 3, 1)
	a.Set(3, 2, 1)
	if err := FloydWarshall(a); err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(a.At(0, 2), 1) {
		t.Fatalf("distance across components = %v, want +Inf", a.At(0, 2))
	}
	if a.At(0, 1) != 1 {
		t.Fatalf("intra-component distance = %v, want 1", a.At(0, 1))
	}
}

func TestFloydWarshallNonSquare(t *testing.T) {
	if err := FloydWarshall(New(2, 3)); err == nil {
		t.Fatal("non-square block accepted")
	}
}

func TestFloydWarshallPhantomNoop(t *testing.T) {
	p := NewPhantom(5, 5)
	if err := FloydWarshall(p); err != nil {
		t.Fatal(err)
	}
	if !p.Phantom() {
		t.Fatal("phantom densified")
	}
}

func TestFloydWarshallIdempotentQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(15) + 2
		a := randomBlock(rng, n, n, 0.4)
		// symmetrize, as in the paper's undirected setting
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := math.Min(a.At(i, j), a.At(j, i))
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		if err := FloydWarshall(a); err != nil {
			return false
		}
		b := a.Clone()
		if err := FloydWarshall(b); err != nil {
			return false
		}
		return a.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFloydWarshallTriangleInequalityQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(12) + 2
		a := randomBlock(rng, n, n, 0.4)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := math.Min(a.At(i, j), a.At(j, i))
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		if err := FloydWarshall(a); err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				for k := 0; k < n; k++ {
					if a.At(i, j) > a.At(i, k)+a.At(k, j)+1e-9 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestFloydWarshallUpdate(t *testing.T) {
	a, _ := FromRows([][]float64{{10, 10}, {10, 10}})
	colI := []float64{1, 2}
	colJ := []float64{3, 4}
	if err := FloydWarshallUpdate(a, colI, colJ); err != nil {
		t.Fatal(err)
	}
	want, _ := FromRows([][]float64{{4, 5}, {5, 6}})
	if !a.Equal(want) {
		t.Fatalf("update =\n%v want\n%v", a, want)
	}
}

func TestFloydWarshallUpdateInfVector(t *testing.T) {
	a, _ := FromRows([][]float64{{10}})
	if err := FloydWarshallUpdate(a, []float64{Inf}, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if a.At(0, 0) != 10 {
		t.Fatalf("Inf column entry changed the block: %v", a.At(0, 0))
	}
}

func TestFloydWarshallUpdateShapeErrors(t *testing.T) {
	if err := FloydWarshallUpdate(New(2, 2), []float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("bad colI length accepted")
	}
	if err := FloydWarshallUpdate(New(2, 2), []float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("bad colJ length accepted")
	}
}
