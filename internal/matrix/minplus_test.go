package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// naiveMinPlusRow is the row primitive's definition, written the way the
// kernels were before they shared it: one compare-and-store per candidate.
func naiveMinPlusRow(d, a, b []float64, ldb int) {
	for k, ak := range a {
		for j := range d {
			if s := ak + b[k*ldb+j]; s < d[j] {
				d[j] = s
			}
		}
	}
}

// fillRow fills v with finite values in [1, 100), or +Inf with probability
// infFrac (1 = all +Inf, 0 = none).
func fillRow(rng *rand.Rand, v []float64, infFrac float64) {
	for i := range v {
		if rng.Float64() < infFrac {
			v[i] = Inf
		} else {
			v[i] = 1 + 99*rng.Float64()
		}
	}
}

// rowCase is one minPlusRow call: d, a and b are sub-slices starting off
// elements into their backing arrays (so their alignment varies), b rows
// are ldb = width+pad apart (a sub-view of a wider matrix), and with alias
// set d is the b row itself (the in-place Floyd-Warshall pivot row).
type rowCase struct {
	width, kd, pad, off int
	infA, infB, infD    float64
	alias               bool
}

func (c rowCase) String() string {
	return fmt.Sprintf("width=%d kd=%d pad=%d off=%d inf=%g/%g/%g alias=%v", c.width, c.kd, c.pad, c.off, c.infA, c.infB, c.infD, c.alias)
}

// checkRowCase runs the case through the dispatched primitive, the generic
// primitive and the naive definition and demands == on every element.
func checkRowCase(t *testing.T, rng *rand.Rand, c rowCase) {
	t.Helper()
	ldb := c.width + c.pad
	a := make([]float64, c.off+c.kd)[c.off:]
	b := make([]float64, c.off+c.kd*ldb+c.width)[c.off:]
	d := make([]float64, c.off+c.width)[c.off:]
	fillRow(rng, a, c.infA)
	fillRow(rng, b, c.infB)
	fillRow(rng, d, c.infD)
	if c.alias {
		d = b[:c.width]
	}
	run := func(f func(d, a, b []float64, ldb int)) []float64 {
		bc := append([]float64(nil), b...)
		dc := append([]float64(nil), d...)
		if c.alias {
			dc = bc[:c.width]
		}
		f(dc, a, bc, ldb)
		return append([]float64(nil), dc...)
	}
	want := run(naiveMinPlusRow)
	for _, p := range []struct {
		name string
		f    func(d, a, b []float64, ldb int)
	}{{"dispatched " + KernelImpl(), minPlusRow}, {"generic", minPlusRowGeneric}} {
		got := run(p.f)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("%s path, %v: d[%d] = %v, want %v", p.name, c, j, got[j], want[j])
			}
		}
	}
}

func TestMinPlusRowMatchesGeneric(t *testing.T) {
	t.Logf("row primitive: %s", KernelImpl())
	rng := rand.New(rand.NewSource(71))
	infs := []float64{0, 0.3, 1}
	for _, width := range []int{0, 1, 3, 4, 5, 31, 32, 33, 63, 64, 255, 256, 257} {
		for _, kd := range []int{0, 1, 3, 4, 5, 64} {
			for i, pad := range []int{0, 1, 7} {
				for _, infA := range infs {
					c := rowCase{width: width, kd: kd, pad: pad, off: i, infA: infA, infB: infs[rng.Intn(3)], infD: infs[rng.Intn(3)]}
					checkRowCase(t, rng, c)
				}
			}
		}
		// The in-place Floyd-Warshall call: one multiplier, d is the b row.
		for off := 0; off < 4; off++ {
			for _, infB := range infs {
				checkRowCase(t, rng, rowCase{width: width, kd: 1, off: off, infB: infB, alias: true})
				checkRowCase(t, rng, rowCase{width: width, kd: 1, off: off, infA: 1, infB: infB, alias: true})
			}
		}
	}
}

func FuzzMinPlusRow(f *testing.F) {
	f.Add(int64(1), uint16(33), uint8(5), uint8(3), uint8(1), uint8(0))
	f.Add(int64(2), uint16(256), uint8(64), uint8(0), uint8(0), uint8(4))
	f.Add(int64(3), uint16(7), uint8(1), uint8(0), uint8(3), uint8(27))
	f.Fuzz(func(t *testing.T, seed int64, width uint16, kd, pad, off, mode uint8) {
		fr := func(m uint8) float64 { return []float64{0, 0.3, 1}[m%3] }
		c := rowCase{
			width: int(width % 300), kd: int(kd % 70), pad: int(pad % 9), off: int(off % 4),
			infA: fr(mode), infB: fr(mode / 3), infD: fr(mode / 9),
		}
		if mode/27%2 == 1 && c.kd > 0 {
			c.kd, c.alias = 1, true
		}
		checkRowCase(t, rand.New(rand.NewSource(seed)), c)
	})
}

// naiveFloydWarshall is the textbook triple loop, sharing no code with the
// kernels.
func naiveFloydWarshall(a *Block) {
	n := a.R
	for i := 0; i < n; i++ {
		if a.Data[i*n+i] > 0 {
			a.Data[i*n+i] = 0
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if s := a.Data[i*n+k] + a.Data[k*n+j]; s < a.Data[i*n+j] {
					a.Data[i*n+j] = s
				}
			}
		}
	}
}

// TestFloydWarshallVariantsAgree runs every Floyd-Warshall variant built
// on the row primitive against the textbook loop. Integer-valued weights
// keep every path sum exact, so the blocked pivot order must agree too.
func TestFloydWarshallVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, n := range []int{1, 2, 7, 33, 64, 65, 130, 200} {
		a := randomBlock(rng, n, n, 0.6)
		for i := range a.Data {
			if a.Data[i] != Inf {
				a.Data[i] = math.Trunc(a.Data[i]*8) + 1
			}
		}
		symmetrize(a)
		want := a.Clone()
		naiveFloydWarshall(want)
		variants := map[string]func(*Block) error{
			"classic":   FloydWarshall,
			"par(4)":    func(b *Block) error { return FloydWarshallPar(b, 4) },
			"sharded-2": func(b *Block) error { return floydWarshallSharded(b, 2) },
			"sharded-3": func(b *Block) error { return floydWarshallSharded(b, 3) },
			"blocked":   FloydWarshallBlocked,
		}
		for _, bs := range []int{1, 7, 64} {
			variants[fmt.Sprintf("blocked-bs%d", bs)] = func(b *Block) error { return FloydWarshallBlockedSize(b, bs, 2) }
		}
		for name, fw := range variants {
			got := a.Clone()
			if err := fw(got); err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s diverges from the textbook loop at n=%d (%s primitive)", name, n, KernelImpl())
			}
		}
	}
}

func TestFloydWarshallZeroAllocs(t *testing.T) {
	a := randomBlock(rand.New(rand.NewSource(79)), 96, 96, 0.3)
	allocs := testing.AllocsPerRun(5, func() {
		if err := FloydWarshall(a); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("FloydWarshall allocated %.1f objects per call, want 0", allocs)
	}
}

// TestTransposeMatchesNaive checks the tiled transpose against its
// definition on shapes that leave ragged tiles and micro-tiles.
func TestTransposeMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for _, s := range [][2]int{{1, 1}, {1, 9}, {9, 1}, {3, 5}, {4, 4}, {31, 33}, {32, 32}, {37, 70}, {100, 3}, {130, 67}} {
		b := randomBlock(rng, s[0], s[1], 0.2)
		into := Get(s[1], s[0])
		if err := b.TransposeInto(into); err != nil {
			t.Fatal(err)
		}
		fresh := b.Transpose()
		for i := 0; i < b.R; i++ {
			for j := 0; j < b.C; j++ {
				if into.At(j, i) != b.At(i, j) || fresh.At(j, i) != b.At(i, j) {
					t.Fatalf("%dx%d: transpose wrong at (%d,%d)", s[0], s[1], i, j)
				}
			}
		}
		Put(into)
	}
}
