package apspark

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"apspark/internal/sparse"
	"apspark/internal/store"
)

// solveRef writes the uninterrupted reference store for g at block size b.
func solveRef(t *testing.T, g *Graph, path string, b int) {
	t.Helper()
	s, err := New(WithSolver(SolverDijkstra))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SolveToStore(context.Background(), g, path, WithBlockSize(b)); err != nil {
		t.Fatal(err)
	}
}

// TestSolveToStoreResumeAfterCancel cancels a streamed solve mid-run,
// then resumes it: the resumed run must skip the durable panels, solve
// exactly the remainder, and produce a store byte-identical to an
// uninterrupted solve.
func TestSolveToStoreResumeAfterCancel(t *testing.T) {
	g := hostTestGraph(t, 200, 5, 41)
	const b = 32 // 7 panels (last ragged)
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.apsp")
	solveRef(t, g, ref, b)

	s, err := New(WithSolver(SolverDijkstra))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "dist.apsp")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const cancelAtRows = 3 * b
	res, err := s.SolveToStore(ctx, g, path, WithBlockSize(b),
		WithProgress(func(ev StageEvent) {
			if ev.Name == "unit" && ev.UnitsDone >= cancelAtRows {
				cancel()
			}
		}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.UnitsRun < cancelAtRows || res.UnitsRun >= g.N {
		t.Fatalf("cancelled run solved %v rows, want a partial count >= %d", res, cancelAtRows)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("cancelled solve left a store at the target path")
	}
	if _, err := os.Stat(path + ".manifest"); err != nil {
		t.Fatalf("cancelled solve left no checkpoint manifest: %v", err)
	}

	res2, err := s.SolveToStore(context.Background(), g, path, WithBlockSize(b), WithResume(true))
	if err != nil {
		t.Fatal(err)
	}
	if res2.UnitsSkipped == 0 {
		t.Fatal("resume skipped nothing despite a checkpoint")
	}
	if res2.UnitsSkipped+res2.UnitsRun != g.N {
		t.Fatalf("skipped %d + run %d != n %d", res2.UnitsSkipped, res2.UnitsRun, g.N)
	}
	// The acceptance criterion: only unfinished panels were re-solved.
	if res2.UnitsRun >= g.N {
		t.Fatalf("resume re-solved all %d rows", res2.UnitsRun)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := os.ReadFile(ref)
	if !bytes.Equal(got, want) {
		t.Fatal("resumed store differs from uninterrupted solve")
	}
	for _, suffix := range []string{".partial", ".manifest"} {
		if _, err := os.Stat(path + suffix); !os.IsNotExist(err) {
			t.Fatalf("checkpoint artifact %s outlived the finished store", suffix)
		}
	}
}

// TestResumeRefusesACorruptTileAbove: a resumed solve seeds its first
// panel from tiles of the .partial, held to the checksums the manifest
// recorded. With a byte of tile (0,2) flipped after the run that wrote it
// was cancelled, the resumed solve fails with ErrCorruptTile and leaves
// no store at the target — raw and ivarint alike.
func TestResumeRefusesACorruptTileAbove(t *testing.T) {
	g := hostTestGraph(t, 200, 5, 43)
	if sparse.New(g).PanelKernel() == "row" {
		t.Skip("this build has no batched kernel, so no panel is seeded")
	}
	const b = 32 // 7 panels
	s, err := New(WithSolver(SolverDijkstra))
	if err != nil {
		t.Fatal(err)
	}
	for _, codec := range []string{"raw", "ivarint"} {
		path := filepath.Join(t.TempDir(), "dist.apsp")
		ctx, cancel := context.WithCancel(context.Background())
		panels := 0
		_, err := s.SolveToStore(ctx, g, path, WithBlockSize(b), WithCodec(codec), WithProgress(func(ev StageEvent) {
			if ev.Name == "unit" {
				if panels++; panels == 2 {
					cancel()
				}
			}
		}))
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", codec, err)
		}
		raw, err := os.ReadFile(path + ".manifest")
		if err != nil {
			t.Fatal(err)
		}
		var m struct {
			Panels, Q int
			Lens      []int64
		}
		if err := json.Unmarshal(raw, &m); err != nil || m.Panels != 2 {
			t.Fatalf("%s: manifest %+v (%v), want 2 durable panels", codec, m, err)
		}
		// The partial ends with the durable panels' tiles, row-major, so
		// tile (0,2) starts where their bytes do plus tiles (0,0) and (0,1).
		f, err := os.OpenFile(path+".partial", os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		st, err := f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		off := st.Size()
		for _, l := range m.Lens[:m.Panels*m.Q] {
			off -= l
		}
		off += m.Lens[0] + m.Lens[1] + m.Lens[2]/2
		one := make([]byte, 1)
		if _, err := f.ReadAt(one, off); err != nil {
			t.Fatal(err)
		}
		one[0] ^= 0x10
		if _, err := f.WriteAt(one, off); err != nil {
			t.Fatal(err)
		}
		f.Close()

		_, err = s.SolveToStore(context.Background(), g, path, WithBlockSize(b), WithCodec(codec), WithResume(true))
		if !errors.Is(err, store.ErrCorruptTile) {
			t.Fatalf("%s: resumed over a flipped byte: err = %v, want ErrCorruptTile", codec, err)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("%s: a store was written over a corrupt tile (stat: %v)", codec, err)
		}
	}
}

// TestWithResumeRejectedOutsideStreamedSolves: resume needs a streamed
// host solve; everything else refuses it and points at the job that takes
// it (which jobs refuse it is pinned by TestJobOptionMatrix).
func TestWithResumeRejectedOutsideStreamedSolves(t *testing.T) {
	g := hostTestGraph(t, 40, 4, 43)
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "d.apsp")
	for name, solve := range map[string]func() (*Result, error){
		"Solve with dij": func() (*Result, error) {
			return s.Solve(ctx, g, WithSolver(SolverDijkstra), WithResume(true))
		},
		"SolveToStore with cb": func() (*Result, error) {
			return s.SolveToStore(ctx, g, path, WithResume(true))
		},
	} {
		if _, err := solve(); err == nil || !strings.Contains(err.Error(), "SolveToStore with dij") {
			t.Errorf("%s: want a refusal naming SolveToStore with dij, got %v", name, err)
		}
	}
}

// crashHelperEnv guards the subprocess half of the kill-and-resume test.
const crashHelperEnv = "APSPARK_CRASH_HELPER"

// TestHelperCrashSolve is not a test: it is the subprocess body of
// TestKillNineAndResume, re-executed from the test binary. It streams a
// solve with a per-panel delay so the parent has time to SIGKILL it
// mid-run.
func TestHelperCrashSolve(t *testing.T) {
	if os.Getenv(crashHelperEnv) != "1" {
		t.Skip("subprocess helper")
	}
	path := os.Getenv("APSPARK_CRASH_PATH")
	n, _ := strconv.Atoi(os.Getenv("APSPARK_CRASH_N"))
	b, _ := strconv.Atoi(os.Getenv("APSPARK_CRASH_B"))
	g := hostTestGraph(t, n, 5, 41)
	s, err := New(WithSolver(SolverDijkstra))
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.SolveToStore(context.Background(), g, path, WithBlockSize(b),
		WithProgress(func(ev StageEvent) {
			if ev.Name == "unit" {
				time.Sleep(100 * time.Millisecond) // window for the parent's kill -9
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
}

// TestKillNineAndResume is the end-to-end acceptance criterion: a real
// process running a streamed dij solve is killed with SIGKILL mid-panel,
// then the solve is resumed in this process. The resumed run must skip
// every durable panel and the final store must be byte-identical to an
// uninterrupted run.
func TestKillNineAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a subprocess and waits on real fsync cadence")
	}
	g := hostTestGraph(t, 200, 5, 41)
	const b = 32
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.apsp")
	solveRef(t, g, ref, b)
	path := filepath.Join(dir, "dist.apsp")

	cmd := exec.Command(os.Args[0], "-test.run", "TestHelperCrashSolve", "-test.v")
	cmd.Env = append(os.Environ(),
		crashHelperEnv+"=1",
		"APSPARK_CRASH_PATH="+path,
		fmt.Sprintf("APSPARK_CRASH_N=%d", g.N),
		fmt.Sprintf("APSPARK_CRASH_B=%d", b),
	)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Wait until the child has at least 2 durable panels, then kill -9.
	manifestPath := path + ".manifest"
	deadline := time.Now().Add(30 * time.Second)
	var durable int
	for {
		if time.Now().After(deadline) {
			t.Fatal("child never checkpointed 2 panels")
		}
		if raw, err := os.ReadFile(manifestPath); err == nil {
			var m struct{ Panels int }
			if json.Unmarshal(raw, &m) == nil && m.Panels >= 2 {
				durable = m.Panels
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() // reap; exit status is the kill, not interesting

	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("killed solve left a store at the target path")
	}

	s, err := New(WithSolver(SolverDijkstra))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.SolveToStore(context.Background(), g, path, WithBlockSize(b), WithResume(true))
	if err != nil {
		t.Fatal(err)
	}
	// The kill may land after more panels became durable than we read;
	// the resume must skip at least what we saw and solve exactly the
	// rest.
	if res.UnitsSkipped < durable*b {
		t.Fatalf("resume skipped %d rows, child had >= %d durable", res.UnitsSkipped, durable*b)
	}
	if res.UnitsSkipped+res.UnitsRun != g.N {
		t.Fatalf("skipped %d + run %d != n %d", res.UnitsSkipped, res.UnitsRun, g.N)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := os.ReadFile(ref)
	if !bytes.Equal(got, want) {
		t.Fatal("store resumed after kill -9 differs from uninterrupted solve")
	}
}
