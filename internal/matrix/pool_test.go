package matrix

import (
	"math"
	"testing"
)

func TestPoolCheckCountsTraffic(t *testing.T) {
	SetPoolCheck(true)
	defer SetPoolCheck(false)

	a := Get(4, 4)
	Put(a)
	b := Get(4, 4) // may or may not be a's array; either way it is a Get
	st := PoolCheckStats()
	if st.Puts != 1 {
		t.Fatalf("Puts = %d, want 1", st.Puts)
	}
	if st.DoublePuts != 0 {
		t.Fatalf("DoublePuts = %d, want 0", st.DoublePuts)
	}
	Put(b)
}

func TestPoolCheckDetectsDoublePut(t *testing.T) {
	SetPoolCheck(true)
	defer SetPoolCheck(false)

	a := Get(8, 8)
	Put(a)
	Put(a) // the invariant violation under test
	st := PoolCheckStats()
	if st.DoublePuts != 1 {
		t.Fatalf("DoublePuts = %d, want 1", st.DoublePuts)
	}
	// The duplicate was suppressed: the arena holds exactly one copy, so
	// two Gets cannot alias.
	x, y := Get(8, 8), Get(8, 8)
	if x == y {
		t.Fatal("double-Put aliased two Gets onto one block")
	}
	Put(x)
	Put(y)
}

func TestPoolCheckOffIsTransparent(t *testing.T) {
	SetPoolCheck(false)
	a := Get(4, 4)
	Put(a)
	if st := PoolCheckStats(); st != (PoolStats{}) {
		t.Fatalf("counters moved while checking disabled: %+v", st)
	}
}

// TestPoolIsSizeClassed: a Get is served only from blocks of its own size
// class, so a small request cannot walk off with an idle large block, and
// a same-sized request still finds it.
func TestPoolIsSizeClassed(t *testing.T) {
	SetPoolCheck(true)
	defer SetPoolCheck(false)

	panel := Get(256, 4096)
	Put(panel)
	before := PoolCheckStats().Gets
	tile := Get(256, 256)
	if cap(tile.Data) >= 256*4096 {
		t.Fatalf("a 256x256 Get was handed a block of capacity %d", cap(tile.Data))
	}
	if got := PoolCheckStats().Gets - before; got != 0 {
		t.Fatalf("a 256x256 Get took %d block(s) out of the arena with only a 256x4096 one in it", got)
	}
	Put(tile)
	// sync.Pool may drop an item at any GC, so only the absence of theft is
	// pinned, not the reuse; but reuse is what normally happens.
	if again := Get(256, 4096); again != panel {
		t.Logf("the idle panel was not reused (a GC may have cleared the pool)")
	}
	// Degenerate shapes neither panic nor enter a class.
	Put(Get(0, 7))
	Put(&Block{})
}

// TestPoolCheckPoisonsReleasedBlocks: with checking on, a block handed to
// Put reads as NaN through any reference kept past the Put, over its whole
// capacity and not only its last shape.
func TestPoolCheckPoisonsReleasedBlocks(t *testing.T) {
	SetPoolCheck(true)
	defer SetPoolCheck(false)

	a := Get(8, 8)
	a.Fill(1)
	stale := a.Data
	a.R, a.C, a.Data = 2, 2, a.Data[:4]
	Put(a)
	for i, v := range stale {
		if !math.IsNaN(v) {
			t.Fatalf("element %d of a released block still reads %v", i, v)
		}
	}
	b := Get(8, 8)
	b.Fill(2)
	if b.At(7, 7) != 2 {
		t.Fatal("a block taken after a poisoned Put is not writable")
	}
	Put(b)

	SetPoolCheck(false)
	c := Get(4, 4)
	c.Fill(3)
	kept := c.Data
	Put(c)
	if kept[0] != 3 {
		t.Fatal("Put touched the block with checking off")
	}
}
