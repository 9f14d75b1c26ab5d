package bench

// Paper-scale regression tests: these replay the paper's headline
// configurations on the full 1,024-core virtual cluster and assert the
// qualitative results of §5 (orderings, failure boundaries, orders of
// magnitude). They are the expensive end of the suite (~2-4 minutes of
// host time on one core) and are skipped under -short.

import (
	"context"
	"errors"
	"testing"

	"apspark/internal/cluster"
	"apspark/internal/core"
	"apspark/internal/costmodel"
)

func paperRun(t *testing.T, s core.Solver, n, b, maxUnits int) (*core.Result, error) {
	t.Helper()
	in, err := core.NewPhantomInput(n, b)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := core.NewContext(cluster.Paper(), costmodel.PaperKernels())
	if err != nil {
		t.Fatal(err)
	}
	return core.Run(context.Background(), rc, s, in, core.Options{MaxUnits: maxUnits})
}

const day = 86400.0

// TestPaperScaleTable2Projections asserts Table 2's central contrast at
// n = 262144, b = 1024: the blocked methods project to hours while
// Repeated Squaring and 2D Floyd-Warshall project to tens of days
// (paper: CB 7h08m, RS 16d8h, FW2D 51d22h).
func TestPaperScaleTable2Projections(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run")
	}
	const n, b = 262144, 1024

	cb, err := paperRun(t, core.BlockedCollectBroadcast{}, n, b, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cb.ProjectedSeconds < 4*3600 || cb.ProjectedSeconds > 20*3600 {
		t.Fatalf("CB projection %s outside the hours regime (paper 7h08m)",
			FormatDuration(cb.ProjectedSeconds))
	}

	rs, err := paperRun(t, core.RepeatedSquaring{}, n, b, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rs.ProjectedSeconds < 5*day || rs.ProjectedSeconds > 60*day {
		t.Fatalf("RS projection %s outside the tens-of-days regime (paper 16d8h)",
			FormatDuration(rs.ProjectedSeconds))
	}

	fw, err := paperRun(t, core.FW2D{}, n, b, 2)
	if err != nil {
		t.Fatal(err)
	}
	if fw.ProjectedSeconds < 10*day || fw.ProjectedSeconds > 120*day {
		t.Fatalf("FW2D projection %s outside the tens-of-days regime (paper 51d22h)",
			FormatDuration(fw.ProjectedSeconds))
	}

	// Ordering: blocked methods are hours; RS and FW2D are infeasible,
	// with FW2D the worst (paper Table 2).
	if !(cb.ProjectedSeconds < rs.ProjectedSeconds && rs.ProjectedSeconds < fw.ProjectedSeconds) {
		t.Fatalf("projection ordering broken: CB %s, RS %s, FW2D %s",
			FormatDuration(cb.ProjectedSeconds), FormatDuration(rs.ProjectedSeconds),
			FormatDuration(fw.ProjectedSeconds))
	}
	t.Logf("CB %s (paper 7h08m), RS %s (paper 16d8h), FW2D %s (paper 51d22h)",
		FormatDuration(cb.ProjectedSeconds), FormatDuration(rs.ProjectedSeconds),
		FormatDuration(fw.ProjectedSeconds))
}

// TestPaperScaleIMStorageBoundary asserts Figure 3's failure boundary at
// n = 131072 on 1,024 cores: Blocked-IM exhausts local SSD staging for
// b = 512 but completes for b = 1024 and 2048, and Blocked-CB both
// completes and beats IM (paper §5.2, Figure 3).
func TestPaperScaleIMStorageBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run")
	}
	const n = 131072

	_, err := paperRun(t, core.BlockedInMemory{}, n, 512, 0)
	var se *cluster.ErrLocalStorage
	if !errors.As(err, &se) {
		t.Fatalf("IM b=512 should exhaust local storage, got %v", err)
	}

	im1024, err := paperRun(t, core.BlockedInMemory{}, n, 1024, 0)
	if err != nil {
		t.Fatalf("IM b=1024 should complete: %v", err)
	}
	im2048, err := paperRun(t, core.BlockedInMemory{}, n, 2048, 0)
	if err != nil {
		t.Fatalf("IM b=2048 should complete: %v", err)
	}
	cb1024, err := paperRun(t, core.BlockedCollectBroadcast{}, n, 1024, 0)
	if err != nil {
		t.Fatal(err)
	}
	cb2048, err := paperRun(t, core.BlockedCollectBroadcast{}, n, 2048, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cb1024.ProjectedSeconds >= im1024.ProjectedSeconds {
		t.Fatalf("CB (%s) not faster than IM (%s) at b=1024",
			FormatDuration(cb1024.ProjectedSeconds), FormatDuration(im1024.ProjectedSeconds))
	}
	if cb2048.ProjectedSeconds >= im2048.ProjectedSeconds {
		t.Fatalf("CB (%s) not faster than IM (%s) at b=2048",
			FormatDuration(cb2048.ProjectedSeconds), FormatDuration(im2048.ProjectedSeconds))
	}
	// Both methods improve from b=1024 to b=2048 at this n (Figure 3's
	// descending branch toward the sweet spot).
	if im2048.ProjectedSeconds >= im1024.ProjectedSeconds {
		t.Fatalf("IM not improving with b: %s -> %s",
			FormatDuration(im1024.ProjectedSeconds), FormatDuration(im2048.ProjectedSeconds))
	}
	t.Logf("IM b=1024 %s, b=2048 %s; CB b=1024 %s, b=2048 %s",
		FormatDuration(im1024.ProjectedSeconds), FormatDuration(im2048.ProjectedSeconds),
		FormatDuration(cb1024.ProjectedSeconds), FormatDuration(cb2048.ProjectedSeconds))
}

// TestPaperScaleWeakScalingIMFailure asserts Table 3's right-hand column:
// at p = 1024 (n = 262144) Blocked-IM runs out of local storage while
// Blocked-CB completes in hours (paper: "-" vs 8h09m).
func TestPaperScaleWeakScalingIMFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run")
	}
	_, err := paperRun(t, core.BlockedInMemory{}, 262144, 2048, 0)
	var se *cluster.ErrLocalStorage
	if !errors.As(err, &se) {
		t.Fatalf("IM at p=1024 should exhaust local storage, got %v", err)
	}
	cb, err := paperRun(t, core.BlockedCollectBroadcast{}, 262144, 2560, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cb.ProjectedSeconds < 4*3600 || cb.ProjectedSeconds > 24*3600 {
		t.Fatalf("CB at p=1024 took %s, want hours (paper 8h09m)",
			FormatDuration(cb.ProjectedSeconds))
	}
	t.Logf("CB n=262144 b=2560: %s (paper 8h09m)", FormatDuration(cb.ProjectedSeconds))
}
