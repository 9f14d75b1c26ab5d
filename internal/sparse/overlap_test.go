package sparse

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"apspark/internal/matrix"
	"apspark/internal/store"
)

// TestSolvePanelsEmitErrorStopsTheSolve: an emit error on panel k comes
// back as is, counts only the panels emitted before it, lets no later
// emit run and abandons the panels still to solve.
func TestSolvePanelsEmitErrorStopsTheSolve(t *testing.T) {
	g := intER(t, 400, 6, 21)
	e := New(g)
	boom := errors.New("disk full")
	const b, failAt = 16, 2
	var emits []int
	var marks []int
	done, err := e.SolvePanels(context.Background(), b, Options{
		Workers:  2,
		Progress: func(rowsDone, _ int) { marks = append(marks, rowsDone) },
	}, func(bi int, _ *matrix.Block) error {
		emits = append(emits, bi)
		if bi == failAt {
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("err = %v, want the emit error itself", err)
	}
	if done != failAt*b {
		t.Fatalf("done = %d, want %d (panels emitted before the failure)", done, failAt*b)
	}
	if len(emits) != failAt+1 || emits[failAt] != failAt {
		t.Fatalf("emit calls = %v, want 0..%d and nothing after", emits, failAt)
	}
	if len(marks) != failAt || marks[failAt-1] != failAt*b {
		t.Fatalf("progress marks = %v, want one per emitted panel", marks)
	}
	// Panel failAt+1 was being solved beside the failing emit and may have
	// finished; nothing past it was started.
	if solved := e.srcSolved.Load(); solved > (failAt+2)*b {
		t.Fatalf("%d sources solved after an emit error at row %d", solved, failAt*b)
	}
}

// TestSolvePanelsCancelWaitsForTheEmitInFlight cancels while panel 1 is
// inside emit and panel 2 is being solved: the call returns only after
// that emit has, counts its rows, and starts no other.
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
	done, err := e.SolvePanels(ctx, 16, Options{
		Workers:  2,
		Progress: func(int, int) { marks++ },
	}, func(bi int, _ *matrix.Block) error {
		emits.Add(1)
		if bi == 1 {
			close(inEmit)
			<-release
			time.Sleep(20 * time.Millisecond) // the caller is already cancelled and waiting
			returned.Store(true)
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !returned.Load() {
		t.Fatal("SolvePanels returned while an emit was still running")
	}
	if done != 32 || marks != 2 || emits.Load() != 2 {
		t.Fatalf("done = %d, progress marks = %d, emits = %d; want 32, 2, 2", done, marks, emits.Load())
	}
}

// TestSolvePanelsOverlapKeepsPanelsIntact is the -race pin for the double
// buffer: every emit reads its whole panel, slowly, while the workers
// solve the next one, and checks it against an in-memory solve. Emits
// must arrive in order, one at a time. The same holds on uint32 cells.
func TestSolvePanelsOverlapKeepsPanelsIntact(t *testing.T) {
	g := intER(t, 203, 6, 23)
	want := solveFull(t, g, 203)
	const b = 16
	var inEmit atomic.Int32
	next := 0
	// emitted reads panel bi, h rows whose (r, v) distance is at(r, v).
	emitted := func(bi, h int, at func(r, v int) float64) error {
		if inEmit.Add(1) != 1 {
			t.Error("two emits in flight")
		}
		defer inEmit.Add(-1)
		if bi != next {
			t.Errorf("emit of panel %d, want %d", bi, next)
		}
		next++
		for r := 0; r < h; r++ {
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
	done, err := New(g).SolvePanels(context.Background(), b, Options{Workers: 3}, func(bi int, panel *matrix.Block) error {
		return emitted(bi, panel.R, panel.At)
	})
	if err != nil || done != g.N {
		t.Fatalf("SolvePanels = %d, %v", done, err)
	}
	next = 0
	done, err = New(g).SolveIntPanels(context.Background(), b, Options{Workers: 3}, func(bi int, rows []uint32) error {
		return emitted(bi, len(rows)/g.N, func(r, v int) float64 {
			if c := rows[r*g.N+v]; c != matrix.NoPath32 {
				return float64(c)
			}
			return matrix.Inf
		})
	})
	if err != nil || done != g.N {
		t.Fatalf("SolveIntPanels = %d, %v", done, err)
	}
}

// TestSolvePanelsCrashAndResumeByteIdentical streams a solve into a
// checkpointing store writer, fails it at a panel boundary while the next
// panel is being solved, and resumes from the checkpoint: the store must
// equal an uninterrupted run's byte for byte.
func TestSolvePanelsCrashAndResumeByteIdentical(t *testing.T) {
	g := intER(t, 150, 6, 24)
	const b, crashAt = 32, 2
	dir := t.TempDir()
	stream := func(path string, resume bool, hook func(bi int) error) (int, error) {
		pw, err := store.NewPanelWriterWithOptions(path, g.N, b, store.PanelWriterOptions{
			Checkpoint: true, Resume: resume, Codec: mustCodec(t, "ivarint"),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer pw.Abort()
		done, err := New(g).SolvePanels(context.Background(), b, Options{FirstPanel: pw.Resumed()}, func(bi int, panel *matrix.Block) error {
			if err := hook(bi); err != nil {
				return err
			}
			return pw.WritePanel(panel)
		})
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
			t.Errorf("resume re-emitted durable panel %d", bi)
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

func mustCodec(t *testing.T, name string) store.Codec {
	t.Helper()
	c, err := store.CodecByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}
