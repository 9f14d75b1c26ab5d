package apspark

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"apspark/internal/matrix"
)

// TestVirtualClockDeterministic pins the virtual clock against goroutine
// scheduling: stages with more tasks than virtual cores, shuffles and
// shared-store reads all run concurrently at GOMAXPROCS=4, and every run
// of every solver must still report the same VirtualSeconds, bit for bit.
func TestVirtualClockDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	g, err := NewErdosRenyiGraph(96, PaperEdgeProb(96), 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []SolverKind{SolverRS, SolverFW2D, SolverIM, SolverCB} {
		distinct := map[float64]int{}
		for rep := 0; rep < 20; rep++ {
			s, err := New(WithCluster(*tinyCluster()), WithSolver(k), WithBlockSize(16))
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Solve(context.Background(), g)
			if err != nil {
				t.Fatalf("%s: %v", k, err)
			}
			distinct[res.VirtualSeconds]++
		}
		if len(distinct) != 1 {
			t.Errorf("%s: %d distinct VirtualSeconds over 20 runs: %v", k, len(distinct), distinct)
		}
	}
}

// TestSessionCancelMidSolve cancels each of the four solvers from the
// progress stream after two iteration units and asserts the cancellation
// contract: prompt return, context.Canceled, a partial Result with
// UnitsRun and projection intact — and the pool-safety invariant (no
// block double-freed into the arena by the unwound error path), checked
// dynamically and then end-to-end by re-solving on the same arena.
func TestSessionCancelMidSolve(t *testing.T) {
	g, err := NewErdosRenyiGraph(48, 0.25, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := mustFW(t, g)
	for _, k := range []SolverKind{SolverRS, SolverFW2D, SolverIM, SolverCB} {
		k := k
		t.Run(string(k), func(t *testing.T) {
			matrix.SetPoolCheck(true)
			defer matrix.SetPoolCheck(false)

			s, err := New(WithCluster(*tinyCluster()), WithSolver(k), WithBlockSize(8))
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			start := time.Now()
			res, err := s.Solve(ctx, g, WithProgress(func(ev StageEvent) {
				if ev.UnitsDone >= 2 {
					cancel()
				}
			}))
			elapsed := time.Since(start)

			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if res == nil {
				t.Fatal("cancelled solve returned no partial result")
			}
			if res.Dist != nil {
				t.Fatal("cancelled solve returned a distance matrix")
			}
			if res.UnitsRun < 2 || res.UnitsRun >= res.UnitsTotal {
				t.Fatalf("partial UnitsRun = %d of %d", res.UnitsRun, res.UnitsTotal)
			}
			if res.VirtualSeconds <= 0 || res.Metrics.Stages == 0 {
				t.Fatalf("partial result lost its accounting: %+v", res)
			}
			if res.ProjectedSeconds <= res.VirtualSeconds {
				t.Fatalf("partial projection %v not beyond measured %v", res.ProjectedSeconds, res.VirtualSeconds)
			}
			// "Prompt" on this scale means milliseconds; the bound only
			// guards against a run that ignored the cancel entirely.
			if elapsed > 30*time.Second {
				t.Fatalf("cancelled solve took %v", elapsed)
			}
			if st := matrix.PoolCheckStats(); st.DoublePuts != 0 {
				t.Fatalf("cancellation double-freed %d pool blocks", st.DoublePuts)
			}

			// The arena survived the unwind: a fresh full solve on the
			// same pool must still be exactly right.
			full, err := s.Solve(context.Background(), g)
			if err != nil {
				t.Fatalf("post-cancel solve: %v", err)
			}
			if !full.Dist.AllClose(want, 1e-9) {
				t.Fatal("post-cancel solve diverged: cancellation corrupted pooled state")
			}
			if st := matrix.PoolCheckStats(); st.DoublePuts != 0 {
				t.Fatalf("post-cancel solve double-freed %d pool blocks", st.DoublePuts)
			}
		})
	}
}

// TestSessionCancelOnFinalUnit pins the last boundary: cancelling from
// the final unit event — after every iteration completed but before the
// result collection — must still return the partial accounting (all
// units run, no Dist) rather than a nil Result.
func TestSessionCancelOnFinalUnit(t *testing.T) {
	g, err := NewErdosRenyiGraph(48, 0.25, 7)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(WithCluster(*tinyCluster()), WithSolver(SolverCB), WithBlockSize(8))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := s.Solve(ctx, g, WithProgress(func(ev StageEvent) {
		if ev.Name == "unit" && ev.UnitsDone == ev.UnitsTotal {
			cancel()
		}
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("final-boundary cancellation returned no partial result")
	}
	if res.UnitsRun != res.UnitsTotal || res.Dist != nil {
		t.Fatalf("final-boundary cancel: units %d/%d dist=%v", res.UnitsRun, res.UnitsTotal, res.Dist != nil)
	}
	if res.VirtualSeconds <= 0 || res.Metrics.Stages == 0 {
		t.Fatalf("partial result lost its accounting: %+v", res)
	}
}

// TestSessionExplicitBlockSizeValidated: only the automatic default is
// clamped — an explicit block size outside [1, n] is an error.
func TestSessionExplicitBlockSizeValidated(t *testing.T) {
	g, err := NewErdosRenyiGraph(32, 0.3, 5)
	if err != nil {
		t.Fatal(err)
	}
	s := tinySession(t)
	if _, err := s.Solve(context.Background(), g, WithBlockSize(100)); err == nil {
		t.Fatal("explicit block size > n accepted by Session.Solve")
	}
	if _, err := s.Solve(context.Background(), g, WithBlockSize(-16)); err == nil {
		t.Fatal("negative block size accepted by Session.Solve")
	}
}

// TestSessionPreCancelledContext pins the zero-progress boundary: a
// context that is already cancelled stops the job before any unit runs.
func TestSessionPreCancelledContext(t *testing.T) {
	g, err := NewErdosRenyiGraph(32, 0.3, 5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(WithCluster(*tinyCluster()))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := s.Solve(ctx, g)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.UnitsRun != 0 {
		t.Fatalf("pre-cancelled solve: %+v", res)
	}
}

// TestSessionProgressSumsToVirtualSeconds is the acceptance check for
// the progress stream: over a CB n=512 solve, the DeltaSeconds of all
// events telescope to exactly the result's VirtualSeconds, the stream
// ends with a Done event at full unit count, and the cumulative shuffle
// counter matches the result metrics.
func TestSessionProgressSumsToVirtualSeconds(t *testing.T) {
	g, err := NewErdosRenyiGraph(512, PaperEdgeProb(512), 42)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(WithCluster(*tinyCluster()), WithSolver(SolverCB), WithBlockSize(64))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var events []StageEvent
	res, err := s.Solve(context.Background(), g, WithProgress(func(ev StageEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no progress events")
	}
	var sum float64
	lastClock := 0.0
	for i, ev := range events {
		sum += ev.DeltaSeconds
		if ev.VirtualSeconds < lastClock {
			t.Fatalf("event %d clock went backwards: %v after %v", i, ev.VirtualSeconds, lastClock)
		}
		lastClock = ev.VirtualSeconds
	}
	if tol := 1e-6 * res.VirtualSeconds; math.Abs(sum-res.VirtualSeconds) > tol {
		t.Fatalf("progress deltas sum to %v, result reports %v", sum, res.VirtualSeconds)
	}
	last := events[len(events)-1]
	if !last.Done {
		t.Fatalf("stream did not end with Done: %+v", last)
	}
	if last.UnitsDone != last.UnitsTotal || last.UnitsDone != res.UnitsRun {
		t.Fatalf("final units %d/%d, result ran %d", last.UnitsDone, last.UnitsTotal, res.UnitsRun)
	}
	if last.VirtualSeconds != res.VirtualSeconds {
		t.Fatalf("final event clock %v, result %v", last.VirtualSeconds, res.VirtualSeconds)
	}
	if last.ShuffleBytes != res.Metrics.ShuffleBytes {
		t.Fatalf("final event shuffle %d, metrics %d", last.ShuffleBytes, res.Metrics.ShuffleBytes)
	}
	// Unit events arrived for every block iteration (q = 8).
	units := 0
	for _, ev := range events {
		if ev.Name == "unit" {
			units++
		}
	}
	if units != res.UnitsTotal {
		t.Fatalf("saw %d unit events, want %d", units, res.UnitsTotal)
	}
}

// TestSessionOptionScopes exercises defaulting and per-job overrides.
func TestSessionOptionScopes(t *testing.T) {
	g, err := NewErdosRenyiGraph(32, 0.3, 9)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(WithCluster(*tinyCluster()), WithSolver(SolverIM), WithBlockSize(8))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Solver != "Blocked-IM" {
		t.Fatalf("session default solver: got %q", res.Solver)
	}
	res, err = s.Solve(context.Background(), g, WithSolver(SolverCB), WithVerify(true))
	if err != nil {
		t.Fatal(err)
	}
	if res.Solver != "Blocked-CB" {
		t.Fatalf("per-job override: got %q", res.Solver)
	}
	// The override was job-scoped: the session default is untouched.
	res, err = s.Solve(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Solver != "Blocked-IM" {
		t.Fatalf("session default mutated by job option: got %q", res.Solver)
	}
	// Auto block size: n/8 clamped.
	res, err = s.Solve(context.Background(), g, WithBlockSize(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.BlockSize != 4 {
		t.Fatalf("auto block size = %d, want 4", res.BlockSize)
	}
}

// TestSessionOptionValidation pins option error paths at both scopes.
func TestSessionOptionValidation(t *testing.T) {
	if _, err := New(WithBlockSize(-1)); err == nil {
		t.Fatal("WithBlockSize(-1) accepted by New")
	}
	if _, err := New(WithClusterCores(33)); err == nil {
		t.Fatal("WithClusterCores(33) accepted")
	}
	if _, err := New(WithPartitioner("bogus")); err == nil {
		t.Fatal("bogus partitioner accepted")
	}
	s, err := New(WithCluster(*tinyCluster()))
	if err != nil {
		t.Fatal(err)
	}
	g, _ := NewGraph(8, nil)
	if _, err := s.Solve(context.Background(), g, WithPartsPerCore(-1)); err == nil {
		t.Fatal("WithPartsPerCore(-1) accepted by Solve")
	}
	// 0 means "restore the default", like the other options.
	if _, err := s.Solve(context.Background(), g, WithPartsPerCore(0)); err != nil {
		t.Fatalf("WithPartsPerCore(0) should mean the default: %v", err)
	}
	if _, err := s.Solve(context.Background(), g, WithSolver("bogus")); err == nil {
		t.Fatal("unknown solver accepted by Solve")
	}
	if _, err := s.Solve(context.Background(), nil); err == nil {
		t.Fatal("nil graph accepted")
	}
}

// TestSessionProjectCancellation: phantom projections honor the same
// context contract as real solves.
func TestSessionProjectCancellation(t *testing.T) {
	s, err := New(WithCluster(*tinyCluster()))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := s.Project(ctx, 8192, WithSolver(SolverIM), WithBlockSize(512), WithProgress(func(ev StageEvent) {
		if ev.UnitsDone >= 2 {
			cancel()
		}
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.UnitsRun < 2 || res.UnitsRun >= res.UnitsTotal {
		t.Fatalf("partial projection: %+v", res)
	}
}
