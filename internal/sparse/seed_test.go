package sparse

import (
	"context"
	"slices"
	"testing"

	"apspark/internal/graph"
	"apspark/internal/matrix"
)

// seedAboveOracle is how a batch was seeded before a seeded panel's tiles
// were filled in lane order: a strided gather of each source's seeds out
// of its whole row, rows[j*n+v] for source base+j at vertex v < above.
// TestLaneOrderSeedsMatchOracle holds seedAbove to it.
func seedAboveOracle[T lane, C matrix.Cell](s *batchState[T], e *Engine, base, k, above int, rows []C) (reached int, ok bool) {
	n, w := e.n, lanesOf[T]()
	for v0 := 0; v0 < above; v0 += emitBlock {
		blk := s.d[v0*w : min(v0+emitBlock, above)*w]
		for j := 0; j < k; j++ {
			r, ok := seedLaneOracle(blk[j:], rows[j*n+v0:][:len(blk)/w])
			if !ok {
				return 0, false
			}
			reached += r
		}
	}
	for j := 0; j < k; j++ {
		s.d[(base+j)*w+j] = 0
	}
	for v := above; v < n; v++ {
		s.dirty[v] = 1
	}
	return reached, true
}

// seedLaneOracle sets every lanesOf[T]-th element of col from row, the
// cell's no-path value as an unreached lane, and returns how many are
// reached, or false at a distance the lanes cannot hold exactly.
func seedLaneOracle[T lane, C matrix.Cell](col []T, row []C) (reached int, ok bool) {
	w, inf, none, top := lanesOf[T](), unreachedLane[T](), matrix.NoPath[C](), C(exactBelow[T]())
	for i, c := range row {
		switch {
		case c == none:
			col[i*w] = inf
		case c >= top:
			return 0, false
		default:
			col[i*w] = T(c)
			reached++
		}
	}
	return reached, true
}

// TestLaneOrderSeedsMatchOracle: every batch of a seeded panel starts with
// the lanes, dirty flags and reached count the strided gather gave it,
// lane for lane, whether its seeds were filled in lane order — read back,
// or copied from the panel just above as it lies, whole rows or a seeded
// panel's — or lie in Solve's matrix: on both lane types, in a panel filled
// at the width it batches at or at 32 while it batches at 16 (a narrowing
// mid-panel), with a ragged last group and panel, no-path cells, and seeds
// past 16 bits, which both refuse.
func TestLaneOrderSeedsMatchOracle(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		b    int
	}{
		{"ER", intER(t, 300, 6, 1), 64},
		{"disconnected", mustGraph(t, 90, append(chain(40, 3, 9), graph.Edge{U: 50, V: 89, W: 255})), 24},
		{"75,000 chain", mustGraph(t, 301, chain(301, 250)), 64},
		{"n=131 b=40", intER(t, 131, 5, 22), 40},
		{"n=32 b=8", intER(t, 32, 4, 5), 8}, // Solve's seeds lie a line apart
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, n, b := New(tc.g), tc.g.N, tc.b
			want := radixRows(t, tc.g)
			ints := make([]uint32, n*n)
			for i, d := range want.Data {
				ints[i] = matrix.Recast[uint32](d)
			}
			for bi := 1; bi*b < n; bi++ {
				base, h := bi*b, min(b, n-bi*b)
				pb := (bi - 1) * b
				whole := panel[uint32]{rows: ints[pb*n : base*n], stride: n}
				compact := panel[uint32]{rows: make([]uint32, 0, b*(n-pb)), stride: n - pb, from: pb}
				for r := 0; r < b; r++ {
					compact.rows = append(compact.rows, ints[(pb+r)*n+pb:][:n-pb]...)
				}
				for _, filled := range []int{batch32, batch16} {
					for _, prev := range []panel[uint32]{{}, whole, compact} {
						job := &panelJob[uint32]{base: base, h: h, up: above[uint32]{b: b, prev: prev, read: tilesOf(ints, n, b)},
							p: panel[uint32]{lower: make([]uint32, base*h), lanes: filled}}
						if err := fillAbove(ctx, e, job); err != nil {
							t.Fatal(err)
						}
						job.above = base
						seedsMatchOracle[uint32](t, e, job, want.Data)
						if filled == batch32 {
							seedsMatchOracle[uint16](t, e, job, want.Data)
						}
					}
				}
				job := &panelJob[float64]{base: base, h: h, above: base, up: above[float64]{b: b, whole: want.Data}}
				seedsMatchOracle[uint32](t, e, job, want.Data)
				seedsMatchOracle[uint16](t, e, job, want.Data)
			}
		})
	}
}

// seedsMatchOracle seeds every batch of job's panel on T lanes, by
// seedAbove and by the oracle from want's rows, and requires the same
// state.
func seedsMatchOracle[T lane, C matrix.Cell](t *testing.T, e *Engine, job *panelJob[C], want []float64) {
	t.Helper()
	a, o := newBatchState[T](e.n), newBatchState[T](e.n)
	w := lanesOf[T]()
	for r := 0; r < job.h; r += w {
		k := min(w, job.h-r)
		got, gotOK := seedAbove(a, e, job, r, k)
		exp, expOK := seedAboveOracle(o, e, job.base+r, k, job.above, want[(job.base+r)*e.n:])
		if gotOK != expOK || got != exp || gotOK && (!slices.Equal(a.d, o.d) || !slices.Equal(a.dirty, o.dirty)) {
			t.Fatalf("panel at %d, %d lanes, sources %d..%d: seeded %d (ok %v), oracle %d (ok %v); lanes equal %v, dirty equal %v",
				job.base, w, r, r+k-1, got, gotOK, exp, expOK, slices.Equal(a.d, o.d), slices.Equal(a.dirty, o.dirty))
		}
		a.reset()
		o.reset()
	}
}

// TestKeptSweepVisitsArePinned: the sweep visits of the batches that stand
// are the same on every run, however much of a thrown-away batch a worker
// swept beside them. The 75,000 chain on two workers in panels of 64,
// streamed and seeded from what it wrote: both batches of its first panel
// outgrow 16-bit lanes, and every batch that stands is on 32-bit lanes.
func TestKeptSweepVisitsArePinned(t *testing.T) {
	requireBatchKernel(t)
	g := mustGraph(t, 301, chain(301, 250))
	for run := 0; run < 4; run++ {
		e := New(g)
		if _, err := e.SolveTo(context.Background(), newMemSink(g.N, 64), Options{Workers: 2}); err != nil {
			t.Fatal(err)
		}
		if kept, thrown := e.sweepVisits.Load(), e.discardedVisits.Load(); kept != 15771 || thrown == 0 {
			t.Fatalf("run %d: %d visits kept, %d thrown away; want 15771 kept and some thrown away", run, kept, thrown)
		}
		if e.seedNs.Load() <= 0 {
			t.Fatalf("run %d: no seed time recorded over 4 seeded panels", run)
		}
	}
}
