package pyhash

import (
	"testing"
	"testing/quick"
)

// Golden values generated with CPython 3 running the pyspark portable_hash
// source verbatim (int hashes are the identity in the tested range, so the
// values are identical to a CPython 2.7 run):
//
//	for c in cases: print(c, portable_hash(c))
var tupleGolden = []struct {
	a, b int64
	want int64
}{
	{0, 0, 3430028580078870074},
	{0, 1, 3430028580079870073},
	{1, 1, 3430029580083870076},
	{2, 3, 3430030580089870085},
	{7, 7, 3430035580117870124},
	{123, 456, 3429911579432869185},
	{1023, 1023, 3429787579485870460},
	{0, 1023, 3430028580381870983},
	{511, 512, 3430299581192870973},
}

func TestTuple2Golden(t *testing.T) {
	for _, c := range tupleGolden {
		if got := Tuple2(c.a, c.b); got != c.want {
			t.Errorf("Tuple2(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestTupleMatchesTuple2(t *testing.T) {
	f := func(a, b int64) bool {
		return Tuple(a, b) == Tuple2(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIntSentinel(t *testing.T) {
	if Int(-1) != -2 {
		t.Fatalf("Int(-1) = %d, want -2", Int(-1))
	}
	if Int(42) != 42 || Int(0) != 0 || Int(-7) != -7 {
		t.Fatal("Int is not the identity on ordinary values")
	}
}

func TestTupleEmptyAndSingle(t *testing.T) {
	// portable_hash(()) == 0x345678 ^ 0 == 3430008
	if got := Tuple(); got != 3430008 {
		t.Fatalf("Tuple() = %d, want 3430008", got)
	}
	// portable_hash((5,)) == ((0x345678 ^ 5) * 1000003 & maxsize) ^ 1
	want := int64((uint64(0x345678^5)*1000003)&maxsize) ^ 1
	if got := Tuple(5); got != want {
		t.Fatalf("Tuple(5) = %d, want %d", got, want)
	}
}

func TestModPythonSemantics(t *testing.T) {
	if Mod(-7, 3) != 2 {
		t.Fatalf("Mod(-7,3) = %d, want 2", Mod(-7, 3))
	}
	if Mod(7, 3) != 1 {
		t.Fatalf("Mod(7,3) = %d, want 1", Mod(7, 3))
	}
	if Mod(5, 0) != 0 {
		t.Fatal("Mod with zero divisor should clamp to 0")
	}
}

func TestModRangeQuick(t *testing.T) {
	f := func(h int64, pRaw uint8) bool {
		p := int(pRaw%64) + 1
		m := Mod(h, p)
		return m >= 0 && m < p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestUpperTriangularSkew documents the phenomenon the paper blames on
// portable_hash: hashing upper-triangular (I,J) keys and reducing modulo a
// partition count produces visibly unbalanced partitions, unlike a
// round-robin assignment. The exact counts below were cross-checked against
// CPython.
func TestUpperTriangularSkew(t *testing.T) {
	const q, parts = 16, 8
	counts := make([]int, parts)
	for i := int64(0); i < q; i++ {
		for j := i; j < q; j++ {
			counts[Mod(Tuple2(i, j), parts)]++
		}
	}
	want := []int{14, 18, 18, 14, 22, 18, 18, 14}
	for p, c := range counts {
		if c != want[p] {
			t.Fatalf("partition %d has %d blocks, want %d (full dist %v)", p, c, want, counts)
		}
	}
}
