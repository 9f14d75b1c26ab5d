package sparse

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"apspark/internal/graph"
	"apspark/internal/matrix"
	"apspark/internal/store"
)

// memSink is a Sink in memory: it keeps the distances of every panel
// written in dist (n x n, matrix.Inf for no path) and reads tiles back
// from there. write, when set, sees each panel first — its index and its
// cell (r, v) as a distance — and an error from it refuses the panel.
type memSink struct {
	n, b, next int
	dist       []float64
	ints       int  // panels written as uint32 cells
	lossy      bool // ReadBack returns nil, as an f32 store's does
	write      func(bi int, at func(r, v int) float64) error
}

func newMemSink(n, b int) *memSink {
	return &memSink{n: n, b: b, dist: make([]float64, n*n)}
}

func (s *memSink) BlockSize() int { return s.b }
func (s *memSink) NextPanel() int { return s.next }

func (s *memSink) WriteCells(p matrix.Panel) error {
	if p.Ints != nil {
		s.ints++
	}
	return keepPanel(s, func(r, v int) float64 { return cellOf(p, s.n, s.b, s.next, r, v) })
}

func (s *memSink) ReadBack() func(bi, bj, lanes int, dst []uint32) error {
	if s.lossy {
		return nil
	}
	return tilesOf(s.dist, s.n, s.b)
}

// held is everything the sink holds.
func (s *memSink) held() *matrix.Block { return &matrix.Block{R: s.n, C: s.n, Data: s.dist} }

// keepPanel writes the panel whose cell (r, v) at returns, reading it
// where it lies, to s as its next panel.
func keepPanel(s *memSink, at func(r, v int) float64) error {
	bi := s.next
	if s.write != nil {
		if err := s.write(bi, at); err != nil {
			return err
		}
	}
	for r := 0; r < min(s.b, s.n-bi*s.b); r++ {
		for v := range s.n {
			s.dist[(bi*s.b+r)*s.n+v] = at(r, v)
		}
	}
	s.next++
	return nil
}

// cellOf is cell (r, v) of panel p — panel bi of an n x n matrix in
// panels of b rows — as a float64, read where it lies: a cell below p.From
// from p's lower tiles, the other way round.
func cellOf(p matrix.Panel, n, b, bi, r, v int) float64 {
	h := min(b, n-bi*b)
	switch {
	case v < p.From:
		return matrix.Recast[float64](p.Lower[v/b*b*h+matrix.LaneIndex(v%b, r, b, h, p.Lanes)])
	case p.Ints != nil:
		return matrix.Recast[float64](p.Ints[r*(n-p.From)+v-p.From])
	}
	return p.Reals[r*(n-p.From)+v-p.From]
}

// tilesOf is the readBack of a matrix of n x n cells in panels of b rows.
func tilesOf[C matrix.Cell](cells []C, n, b int) readBack {
	return func(bi, bj, lanes int, dst []uint32) error {
		h, w := min(b, n-bi*b), min(b, n-bj*b)
		for r := 0; r < h; r++ {
			for c, x := range cells[(bi*b+r)*n+bj*b:][:w] {
				dst[matrix.LaneIndex(r, c, h, w, lanes)] = matrix.Recast[uint32](x)
			}
		}
		return nil
	}
}

// realER is a connected sparse ER graph with uniform real weights: its
// panels are float64 and never batch.
func realER(t testing.TB, n int, deg float64, seed int64) *graph.Graph {
	t.Helper()
	g, err := graph.ErdosRenyiConnected(n, graph.AvgDegreeProb(n, deg), graph.UniformWeights(100), seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSolvePanelsEmitErrorStopsTheSolve: a write error on panel k comes
// back as is, counts only the panels written before it, lets no later
// write run and abandons the panels still to solve.
func TestSolvePanelsEmitErrorStopsTheSolve(t *testing.T) {
	g := intER(t, 400, 6, 21)
	e := New(g)
	boom := errors.New("disk full")
	const b, failAt = 16, 2
	var emits []int
	var marks []int
	s := newMemSink(g.N, b)
	s.write = func(bi int, _ func(r, v int) float64) error {
		emits = append(emits, bi)
		if bi == failAt {
			return boom
		}
		return nil
	}
	done, err := e.SolveTo(context.Background(), s, Options{
		Workers:  2,
		Progress: func(rowsDone, _ int) { marks = append(marks, rowsDone) },
	})
	if err != boom {
		t.Fatalf("err = %v, want the write error itself", err)
	}
	if done != failAt*b {
		t.Fatalf("done = %d, want %d (panels written before the failure)", done, failAt*b)
	}
	if len(emits) != failAt+1 || emits[failAt] != failAt {
		t.Fatalf("write calls = %v, want 0..%d and nothing after", emits, failAt)
	}
	if len(marks) != failAt || marks[failAt-1] != failAt*b {
		t.Fatalf("progress marks = %v, want one per written panel", marks)
	}
	// Panel failAt+1 was being solved beside the failing write and may have
	// finished; nothing past it was started.
	if solved := e.srcSolved.Load(); solved > (failAt+2)*b {
		t.Fatalf("%d sources solved after a write error at row %d", solved, failAt*b)
	}
}

// TestSolvePanelsCancelWaitsForTheEmitInFlight cancels while panel 1 is
// being written and panel 2 is being solved: the call returns only after
// that write has, counts its rows, and starts no other.
func TestSolvePanelsCancelWaitsForTheEmitInFlight(t *testing.T) {
	g := intER(t, 160, 5, 22)
	e := New(g)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inEmit, release := make(chan struct{}), make(chan struct{})
	go func() {
		<-inEmit
		cancel()
		close(release)
	}()
	var returned atomic.Bool
	var emits atomic.Int32
	marks := 0
	s := newMemSink(g.N, 16)
	s.write = func(bi int, _ func(r, v int) float64) error {
		emits.Add(1)
		if bi == 1 {
			close(inEmit)
			<-release
			time.Sleep(20 * time.Millisecond) // the caller is already cancelled and waiting
			returned.Store(true)
		}
		return nil
	}
	done, err := e.SolveTo(ctx, s, Options{
		Workers:  2,
		Progress: func(int, int) { marks++ },
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !returned.Load() {
		t.Fatal("SolveTo returned while a write was still running")
	}
	if done != 32 || marks != 2 || emits.Load() != 2 {
		t.Fatalf("done = %d, progress marks = %d, writes = %d; want 32, 2, 2", done, marks, emits.Load())
	}
}

// TestSolvePanelsOverlapKeepsPanelsIntact is the -race pin for the double
// buffer: every write reads its whole panel, slowly, while the workers
// solve the next one, and checks it against an in-memory solve. Writes
// must arrive in order, one at a time. It runs on uint32 cells (integer
// weights) and on float64 rows (real weights).
func TestSolvePanelsOverlapKeepsPanelsIntact(t *testing.T) {
	const b = 16
	for _, g := range []*graph.Graph{intER(t, 203, 6, 23), realER(t, 203, 6, 23)} {
		want := solveFull(t, g, 203)
		var inEmit atomic.Int32
		next := 0
		s := newMemSink(g.N, b)
		s.write = func(bi int, at func(r, v int) float64) error {
			if inEmit.Add(1) != 1 {
				t.Error("two writes in flight")
			}
			defer inEmit.Add(-1)
			if bi != next {
				t.Errorf("write of panel %d, want %d", bi, next)
			}
			next++
			for r := 0; r < min(b, g.N-bi*b); r++ {
				if r%4 == 0 {
					time.Sleep(time.Millisecond) // let the next panel's solve run beside this read
				}
				for v := 0; v < g.N; v++ {
					if d := at(r, v); d != want.At(bi*b+r, v) {
						t.Errorf("panel %d row %d col %d = %v, want %v", bi, r, v, d, want.At(bi*b+r, v))
						return nil
					}
				}
			}
			return nil
		}
		done, err := New(g).SolveTo(context.Background(), s, Options{Workers: 3})
		if err != nil || done != g.N {
			t.Fatalf("SolveTo = %d, %v", done, err)
		}
	}
}

// hookedWriter is a store writer whose panel writes first pass hook,
// which may fail them.
type hookedWriter struct {
	*store.PanelWriter
	hook func(bi int) error
}

func (w hookedWriter) WriteCells(p matrix.Panel) error {
	if err := w.hook(w.NextPanel()); err != nil {
		return err
	}
	return w.PanelWriter.WriteCells(p)
}

// TestSolvePanelsCrashAndResumeByteIdentical streams a solve into a
// checkpointing store writer, fails it at a panel boundary while the next
// panel is being solved, and resumes from the checkpoint: the store must
// equal an uninterrupted run's byte for byte, on uint32 cells and on
// float64 rows.
func TestSolvePanelsCrashAndResumeByteIdentical(t *testing.T) {
	const b, crashAt = 32, 2
	for _, g := range []*graph.Graph{intER(t, 150, 6, 24), realER(t, 150, 6, 24)} {
		dir := t.TempDir()
		stream := func(path string, resume bool, hook func(bi int) error) (int, error) {
			pw, err := store.NewPanelWriterWithOptions(path, g.N, b, store.PanelWriterOptions{
				Checkpoint: true, Resume: resume, Codec: mustCodec(t, "ivarint"),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer pw.Abort()
			done, err := New(g).SolveTo(context.Background(), hookedWriter{pw, hook}, Options{})
			if err != nil {
				return done, err
			}
			return done, pw.Close()
		}
		ref := filepath.Join(dir, "ref.apsp")
		if _, err := stream(ref, false, func(int) error { return nil }); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "dist.apsp")
		crash := errors.New("crash")
		if done, err := stream(path, false, func(bi int) error {
			if bi == crashAt {
				return crash
			}
			return nil
		}); err != crash || done != crashAt*b {
			t.Fatalf("crashed run = %d, %v; want %d rows and the crash", done, err, crashAt*b)
		}
		done, err := stream(path, true, func(bi int) error {
			if bi < crashAt {
				t.Errorf("resume re-wrote durable panel %d", bi)
			}
			return nil
		})
		if err != nil || done != g.N-crashAt*b {
			t.Fatalf("resumed run = %d, %v; want the %d rows past the checkpoint", done, err, g.N-crashAt*b)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(ref)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("resumed store differs from the uninterrupted one")
		}
	}
}

// TestSupplyInterleavesWithSolvedPanels: a solve whose Supply writes every
// other panel itself, from the radix rows, and leaves the rest to the
// engine writes the radix rows. Supply sees each panel once, in order,
// once the write before it has returned; and a ctx cancelled inside
// Supply ends the solve with ctx.Err(). On integer weights the panel
// after a supplied one seeds from the tiles read back, not from the
// engine's other buffer, which holds the panel before the supplied one.
func TestSupplyInterleavesWithSolvedPanels(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		b    int
	}{
		{"ER", intER(t, 600, 6, 21), 64},
		{"75,000 chain", mustGraph(t, 301, chain(301, 250)), 64},
		{"real weights", realER(t, 200, 5, 25), 32},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, b := tc.g.N, tc.b
			q := (n + b - 1) / b
			want := radixRows(t, tc.g)
			// solve runs the solve with Supply writing the odd panels; it
			// cancels the solve inside Supply(cancelAt) (-1: never).
			solve := func(cancelAt int) (*memSink, []int, int, error) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				s := newMemSink(n, b)
				s.write = func(int, func(r, v int) float64) error {
					time.Sleep(time.Millisecond) // a write still running when Supply is called shows
					return nil
				}
				var seen []int
				done, err := New(tc.g).SolveTo(ctx, s, Options{Workers: 2, Supply: func(bi int) (bool, error) {
					seen = append(seen, bi)
					if s.next != bi {
						t.Errorf("Supply(%d) with %d panels written", bi, s.next)
					}
					if bi == cancelAt {
						cancel()
					}
					if bi%2 == 0 {
						return false, nil
					}
					return true, keepPanel(s, func(r, v int) float64 { return want.At(bi*b+r, v) })
				}})
				return s, seen, done, err
			}
			s, seen, done, err := solve(-1)
			if err != nil || done != n {
				t.Fatalf("SolveTo = %d, %v", done, err)
			}
			all := make([]int, q)
			for bi := range all {
				all[bi] = bi
			}
			if !slices.Equal(seen, all) {
				t.Fatalf("Supply saw panels %v, want 0..%d", seen, q-1)
			}
			requireBitIdentical(t, s.held(), want)

			for _, at := range []int{1, 2, q - 1} {
				_, seen, done, err := solve(at)
				// A supplied panel counts: its write returned.
				rows := at * b
				if at%2 == 1 {
					rows = min(rows+b, n)
				}
				if !errors.Is(err, context.Canceled) || done != rows || len(seen) != at+1 {
					t.Fatalf("cancelled in Supply(%d): %d rows, %v, Supply saw %v; want %d rows, context.Canceled, 0..%d",
						at, done, err, seen, rows, at)
				}
			}
		})
	}
}

func mustCodec(t *testing.T, name string) store.Codec {
	t.Helper()
	c, err := store.CodecByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}
