package matrix

import (
	"math"
	"math/rand"
	"testing"
)

// refMinPlus is the unfused reference pipeline the fused kernels must
// reproduce exactly: min(dst, a (x) b) via materialized product + MatMin.
func refMinPlus(t *testing.T, a, b, dst *Block) *Block {
	t.Helper()
	prod, err := MinPlusMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	out, err := MatMin(prod, dst)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// fusedShapes covers square blocks, non-square blocks, and edges that are
// not multiples of the 64-wide tile (remainder loops on every axis).
var fusedShapes = [][3]int{
	{1, 1, 1}, {3, 4, 5}, {17, 9, 23}, {64, 64, 64}, {65, 64, 63},
	{70, 70, 70}, {100, 37, 129}, {130, 65, 129}, {128, 200, 96},
}

func TestMinPlusMulIntoMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, infFrac := range []float64{0.0, 0.3, 0.9} {
		for _, shape := range fusedShapes {
			a := randomBlock(rng, shape[0], shape[1], infFrac)
			b := randomBlock(rng, shape[1], shape[2], infFrac)
			want, err := MinPlusMul(a, b)
			if err != nil {
				t.Fatal(err)
			}
			dst := randomBlock(rng, shape[0], shape[2], 0.2) // must be overwritten
			if err := MinPlusMulInto(a, b, dst); err != nil {
				t.Fatal(err)
			}
			if !dst.Equal(want) {
				t.Fatalf("MinPlusMulInto diverges at shape %v infFrac %g", shape, infFrac)
			}
		}
	}
}

func TestMinPlusIntoMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, infFrac := range []float64{0.0, 0.3, 0.9} {
		for _, shape := range fusedShapes {
			a := randomBlock(rng, shape[0], shape[1], infFrac)
			b := randomBlock(rng, shape[1], shape[2], infFrac)
			dst := randomBlock(rng, shape[0], shape[2], 0.4)
			want := refMinPlus(t, a, b, dst)
			if err := MinPlusInto(a, b, dst); err != nil {
				t.Fatal(err)
			}
			if !dst.Equal(want) {
				t.Fatalf("MinPlusInto diverges at shape %v infFrac %g", shape, infFrac)
			}
		}
	}
}

func TestMinPlusIntoParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, workers := range []int{2, 3, 4, 8, 64} {
		for _, shape := range [][3]int{{130, 65, 129}, {256, 256, 256}, {300, 128, 190}} {
			a := randomBlock(rng, shape[0], shape[1], 0.3)
			b := randomBlock(rng, shape[1], shape[2], 0.3)
			dst := randomBlock(rng, shape[0], shape[2], 0.4)
			serial := dst.Clone()
			if err := MinPlusInto(a, b, serial); err != nil {
				t.Fatal(err)
			}
			if err := MinPlusIntoPar(a, b, dst, workers); err != nil {
				t.Fatal(err)
			}
			if !dst.Equal(serial) {
				t.Fatalf("parallel (workers=%d) diverges from serial at shape %v", workers, shape)
			}
		}
	}
}

func TestMinPlusMulIntoParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := randomBlock(rng, 256, 192, 0.3)
	b := randomBlock(rng, 192, 224, 0.3)
	want, err := MinPlusMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	dst := randomBlock(rng, 256, 224, 0.2)
	if err := MinPlusMulIntoPar(a, b, dst, 7); err != nil {
		t.Fatal(err)
	}
	if !dst.Equal(want) {
		t.Fatal("parallel MinPlusMulInto diverges")
	}
}

func TestMinPlusIntoAliasedDestination(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	// dst aliasing a: a = min(a, a (x) b) must keep functional semantics
	// (the product uses a's ORIGINAL values).
	a := randomBlock(rng, 40, 40, 0.3)
	b := randomBlock(rng, 40, 40, 0.3)
	want := refMinPlus(t, a, b, a)
	got := a.Clone()
	if err := MinPlusInto(got, b, got); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("aliased dst==a diverges from functional semantics")
	}
	// dst aliasing b.
	want2 := refMinPlus(t, a, b, b)
	got2 := b.Clone()
	if err := MinPlusInto(a, got2, got2); err != nil {
		t.Fatal(err)
	}
	if !got2.Equal(want2) {
		t.Fatal("aliased dst==b diverges from functional semantics")
	}
	// Squaring in place: a = min(a, a (x) a).
	sq := a.Clone()
	want3 := refMinPlus(t, a, a, a)
	if err := MinPlusInto(sq, sq, sq); err != nil {
		t.Fatal(err)
	}
	if !sq.Equal(want3) {
		t.Fatal("in-place squaring diverges from functional semantics")
	}
}

func TestMinPlusMulIntoAliasedDestination(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := randomBlock(rng, 33, 33, 0.3)
	want, err := MinPlusMul(a, a)
	if err != nil {
		t.Fatal(err)
	}
	got := a.Clone()
	if err := MinPlusMulInto(got, got, got); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("aliased MinPlusMulInto diverges")
	}
}

func TestFusedPhantomNoop(t *testing.T) {
	dense := New(4, 4)
	dense.Fill(1)
	snapshot := dense.Clone()
	if err := MinPlusInto(NewPhantom(4, 4), dense, dense.Clone()); err != nil {
		t.Fatal(err)
	}
	if err := MinPlusInto(dense, NewPhantom(4, 4), dense.Clone()); err != nil {
		t.Fatal(err)
	}
	if err := MinPlusMulInto(dense, dense, NewPhantom(4, 4)); err != nil {
		t.Fatal(err)
	}
	if err := MinPlusInto(NewPhantom(4, 4), NewPhantom(4, 4), NewPhantom(4, 4)); err != nil {
		t.Fatal(err)
	}
	if !dense.Equal(snapshot) {
		t.Fatal("phantom call touched a dense operand")
	}
	p := NewPhantom(6, 6)
	if err := FloydWarshallBlocked(p); err != nil {
		t.Fatal(err)
	}
	if err := FloydWarshallPar(p, 4); err != nil {
		t.Fatal(err)
	}
	if !p.Phantom() {
		t.Fatal("phantom densified")
	}
}

func TestFusedShapeErrors(t *testing.T) {
	if err := MinPlusInto(New(2, 3), New(2, 3), New(2, 3)); err == nil {
		t.Fatal("inner-dim mismatch accepted")
	}
	if err := MinPlusInto(New(2, 3), New(3, 4), New(2, 3)); err == nil {
		t.Fatal("bad destination shape accepted")
	}
	if err := MinPlusMulInto(New(2, 3), New(3, 4), New(3, 4)); err == nil {
		t.Fatal("bad destination shape accepted")
	}
	if err := FloydWarshallBlocked(New(2, 3)); err == nil {
		t.Fatal("non-square block accepted")
	}
	if err := FloydWarshallBlockedSize(New(4, 4), 0, 1); err == nil {
		t.Fatal("zero block size accepted")
	}
	if err := FloydWarshallPar(New(2, 3), 2); err == nil {
		t.Fatal("non-square block accepted")
	}
}

// symmetrize makes a random block an undirected adjacency matrix, the
// setting all solvers operate in.
func symmetrize(a *Block) {
	for i := 0; i < a.R; i++ {
		for j := i + 1; j < a.C; j++ {
			v := math.Min(a.At(i, j), a.At(j, i))
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
}

func TestFloydWarshallBlockedMatchesClassic(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{1, 2, 7, 63, 64, 65, 100, 130, 200} {
		a := randomBlock(rng, n, n, 0.6)
		// Integer-valued weights keep every path sum exact, so the blocked
		// and classic pivot orders must agree bit for bit.
		for i := range a.Data {
			if a.Data[i] != Inf {
				a.Data[i] = math.Trunc(a.Data[i]*8) + 1
			}
		}
		symmetrize(a)
		want := a.Clone()
		if err := FloydWarshall(want); err != nil {
			t.Fatal(err)
		}
		got := a.Clone()
		if err := FloydWarshallBlocked(got); err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("blocked FW diverges from classic at n=%d", n)
		}
		for _, bs := range []int{1, 3, 32, n} {
			got := a.Clone()
			if err := FloydWarshallBlockedSize(got, bs, 1); err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("blocked FW (bs=%d) diverges from classic at n=%d", bs, n)
			}
		}
	}
}

func TestFloydWarshallBlockedParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := randomBlock(rng, 200, 200, 0.5)
	symmetrize(a)
	serial := a.Clone()
	if err := FloydWarshallBlocked(serial); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 16} {
		got := a.Clone()
		if err := FloydWarshallBlockedPar(got, workers); err != nil {
			t.Fatal(err)
		}
		if !got.Equal(serial) {
			t.Fatalf("parallel blocked FW (workers=%d) diverges", workers)
		}
	}
}

func TestFloydWarshallParMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, n := range []int{1, 65, 130, 256} {
		a := randomBlock(rng, n, n, 0.5)
		symmetrize(a)
		want := a.Clone()
		if err := FloydWarshall(want); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 9} {
			// The sharded body directly: FloydWarshallPar itself only
			// shards from 2*fwParMinRows rows up.
			got := a.Clone()
			if err := floydWarshallSharded(got, workers); err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("floydWarshallSharded(shards=%d) diverges at n=%d", workers, n)
			}
		}
	}
}

func TestArenaGetPut(t *testing.T) {
	b := Get(5, 7)
	if b.R != 5 || b.C != 7 || len(b.Data) != 35 || b.Phantom() {
		t.Fatalf("Get returned %dx%d len %d", b.R, b.C, len(b.Data))
	}
	inf := GetInf(3, 3)
	for _, v := range inf.Data {
		if !math.IsInf(v, 1) {
			t.Fatal("GetInf not fully +Inf")
		}
	}
	Put(b)
	Put(inf)
	// A recycled block must be resliced to the requested shape even when
	// its previous capacity was larger.
	small := Get(2, 2)
	if small.R != 2 || small.C != 2 || len(small.Data) != 4 {
		t.Fatalf("recycled Get returned %dx%d len %d", small.R, small.C, len(small.Data))
	}
	Put(small)
	// Put of phantoms and nil must be safe no-ops.
	Put(nil)
	Put(NewPhantom(4, 4))
}

func TestCopyFromAndTransposeInto(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	src := randomBlock(rng, 9, 4, 0.3)
	dst := Get(9, 4)
	if err := dst.CopyFrom(src); err != nil {
		t.Fatal(err)
	}
	if !dst.Equal(src) {
		t.Fatal("CopyFrom diverges")
	}
	tr := Get(4, 9)
	if err := src.TransposeInto(tr); err != nil {
		t.Fatal(err)
	}
	if !tr.Equal(src.Transpose()) {
		t.Fatal("TransposeInto diverges from Transpose")
	}
	if err := dst.CopyFrom(New(4, 9)); err == nil {
		t.Fatal("CopyFrom shape mismatch accepted")
	}
	if err := src.TransposeInto(Get(9, 4)); err == nil {
		t.Fatal("TransposeInto shape mismatch accepted")
	}
	if err := NewPhantom(9, 4).CopyFrom(src); err == nil {
		t.Fatal("CopyFrom on phantom accepted")
	}
	if err := src.TransposeInto(NewPhantom(4, 9)); err == nil {
		t.Fatal("TransposeInto to phantom accepted")
	}
}

// TestMinPlusIntoZeroAllocs pins the acceptance criterion: the fused path
// allocates nothing on the hot loop.
func TestMinPlusIntoZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	a := randomBlock(rng, 128, 128, 0.2)
	b := randomBlock(rng, 128, 128, 0.2)
	dst := randomBlock(rng, 128, 128, 0.2)
	allocs := testing.AllocsPerRun(10, func() {
		if err := MinPlusInto(a, b, dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("MinPlusInto allocated %.1f objects per call, want 0", allocs)
	}
}

// TestFloydWarshallParNegativeDiagonal pins the race guard: a negative
// diagonal element makes the pivot row rewrite itself, so the parallel
// kernel must detect it and fall back to the exact serial schedule.
func TestFloydWarshallParNegativeDiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	a := randomBlock(rng, 300, 300, 0.4)
	symmetrize(a)
	a.Set(3, 3, -1)
	want := a.Clone()
	if err := FloydWarshall(want); err != nil {
		t.Fatal(err)
	}
	got := a.Clone()
	if err := floydWarshallSharded(got, 4); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("negative-diagonal fallback diverges from serial")
	}
}

// TestFloydWarshallParNegativeCycle pins the sharper guard: negative
// off-diagonal entries (a negative cycle with a clean input diagonal) can
// turn the diagonal negative mid-run, so the parallel kernel must fall
// back to serial for any input containing a negative entry.
func TestFloydWarshallParNegativeCycle(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	a := randomBlock(rng, 300, 300, 0.4)
	symmetrize(a)
	a.Set(0, 1, -2)
	a.Set(1, 0, 1)
	want := a.Clone()
	if err := FloydWarshall(want); err != nil {
		t.Fatal(err)
	}
	got := a.Clone()
	if err := floydWarshallSharded(got, 4); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("negative-cycle fallback diverges from serial")
	}
}

// TestMinPlusSymIntoMatchesFullProduct holds the half-computed, mirrored
// symmetric product to the full one, element for element: tile-aligned and
// ragged edges, a single tile, Inf-heavy operands, and enough rows that
// workers > 1 shards the row bands.
func TestMinPlusSymIntoMatchesFullProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, infFrac := range []float64{0.0, 0.5, 0.95} {
		for _, shape := range [][2]int{{1, 1}, {5, 3}, {63, 70}, {64, 64}, {65, 64}, {130, 33}, {256, 256}, {300, 129}} {
			n, kd := shape[0], shape[1]
			a := randomBlock(rng, n, kd, infFrac)
			aT := a.Transpose()
			base := randomBlock(rng, n, n, infFrac)
			for r := 0; r < n; r++ {
				for c := 0; c < r; c++ {
					base.Set(r, c, base.At(c, r))
				}
			}
			want := base.Clone()
			if err := MinPlusInto(a, aT, want); err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 3} {
				got := base.Clone()
				if err := MinPlusSymIntoPar(a, aT, got, workers); err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("n=%d kd=%d inf=%.2f workers=%d: mirrored product differs from the full one", n, kd, infFrac, workers)
				}
			}
		}
	}
	a := randomBlock(rng, 4, 3, 0)
	if err := MinPlusSymIntoPar(a, a, New(4, 4), 1); err == nil {
		t.Fatal("a right operand that cannot be the transpose was accepted")
	}
	if err := MinPlusSymIntoPar(a, a.Transpose(), New(4, 5), 1); err == nil {
		t.Fatal("non-square destination accepted")
	}
	sq := randomBlock(rng, 4, 4, 0)
	if err := MinPlusSymIntoPar(sq, sq.Transpose(), sq, 1); err == nil {
		t.Fatal("destination aliasing an operand accepted")
	}
	if err := MinPlusSymIntoPar(NewPhantom(4, 3), NewPhantom(3, 4), NewPhantom(4, 4), 1); err != nil {
		t.Fatalf("phantom operands: %v", err)
	}
}
