package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"apspark/internal/cluster"
	"apspark/internal/costmodel"
	"apspark/internal/graph"
	"apspark/internal/rdd"
	"apspark/internal/seq"
)

// TestDriverContract holds Run to its contract once, for all four solvers:
// what a run returns when it is cancelled at a unit boundary or in the final
// collect, when MaxUnits does not truncate, and what its progress stream
// adds up to. None of it is a solver's own code any more.
func TestDriverContract(t *testing.T) {
	g, err := graph.ErdosRenyi(32, 0.25, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	const b = 8 // q = 4: 4 block iterations, 20 columns, 32 pivots
	dec, err := graph.NewDecomposition(g.N, b)
	if err != nil {
		t.Fatal(err)
	}
	want := seq.Reference(g)

	for _, s := range Solvers() {
		units := s.Units(dec)
		// run solves in, cancelling once cancelAt units are done (-1:
		// never), and returns the result, the progress stream and the error.
		run := func(cancelAt, maxUnits int) (*Result, []rdd.StageEvent, error) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if cancelAt == 0 {
				cancel()
			}
			rc := testContext(t)
			var events []rdd.StageEvent
			rc.SetProgress(func(ev rdd.StageEvent) {
				events = append(events, ev)
				if ev.Name == "unit" && ev.UnitsDone == cancelAt {
					cancel()
				}
			})
			res, err := Run(ctx, rc, s, freshInput(t, g, b), Options{MaxUnits: maxUnits})
			return res, events, err
		}

		t.Run(s.Name()+"/cancel", func(t *testing.T) {
			for _, k := range []int{0, 1, 3, units} {
				res, _, err := run(k, 0)
				if err != context.Canceled {
					t.Fatalf("cancel before unit %d: err = %v, want the context's", k, err)
				}
				if res == nil || res.UnitsRun != k || res.UnitsTotal != units || res.Dist != nil || res.Blocks != nil {
					t.Fatalf("cancel before unit %d: partial result %+v", k, res)
				}
				if k == 0 {
					continue
				}
				// k == units is the cancellation the final collect sees.
				if res.VirtualSeconds <= 0 || res.Metrics.Stages == 0 || res.Metrics.Tasks == 0 {
					t.Fatalf("cancel before unit %d lost its accounting: %+v", k, res)
				}
				if k < units && res.ProjectedSeconds <= res.VirtualSeconds {
					t.Fatalf("cancel before unit %d: projection %v not beyond measured %v", k, res.ProjectedSeconds, res.VirtualSeconds)
				}
			}
		})

		t.Run(s.Name()+"/max units", func(t *testing.T) {
			full, _, err := run(-1, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !full.Dist.AllClose(want, 1e-9) {
				t.Fatal("distances diverge from sequential FW")
			}
			for _, maxUnits := range []int{units, units + 5} {
				res, _, err := run(-1, maxUnits)
				if err != nil {
					t.Fatal(err)
				}
				if res.UnitsRun != units || res.VirtualSeconds != full.VirtualSeconds ||
					res.ProjectedSeconds != full.ProjectedSeconds || res.Metrics != full.Metrics || !res.Dist.Equal(full.Dist) {
					t.Fatalf("MaxUnits = %d of %d units is not a full run: %+v, want %+v", maxUnits, units, res, full)
				}
			}
		})

		t.Run(s.Name()+"/progress", func(t *testing.T) {
			for _, maxUnits := range []int{0, 2} {
				res, events, err := run(-1, maxUnits)
				if err != nil {
					t.Fatal(err)
				}
				var sum float64
				unitEvents := 0
				for _, ev := range events {
					sum += ev.DeltaSeconds
					if ev.Name == "unit" {
						unitEvents++
					}
				}
				if math.Abs(sum-res.VirtualSeconds) > 1e-9*res.VirtualSeconds {
					t.Fatalf("progress deltas sum to %v, result reports %v", sum, res.VirtualSeconds)
				}
				if unitEvents != res.UnitsRun {
					t.Fatalf("%d unit events for %d units", unitEvents, res.UnitsRun)
				}
				last := events[len(events)-1]
				if !last.Done || last.VirtualSeconds != res.VirtualSeconds || last.UnitsDone != res.UnitsRun || last.UnitsTotal != units {
					t.Fatalf("stream ends with %+v, result %+v", last, res)
				}
				for _, ev := range events[:len(events)-1] {
					if ev.Done {
						t.Fatalf("Done event %+v before the end of the stream", ev)
					}
				}
			}
		})
	}
}

// TestDriverReportsTheFailingUnit runs Blocked-IM out of local storage in
// the middle of a run (the paper's Figure 3 failure, on 1 MiB disks): the
// error comes back with the accounting of the iterations that completed.
func TestDriverReportsTheFailingUnit(t *testing.T) {
	in, err := NewPhantomInput(384, 64) // q = 6
	if err != nil {
		t.Fatal(err)
	}
	rc, err := NewContext(cluster.Tiny(), costmodel.PaperKernels())
	if err != nil {
		t.Fatal(err)
	}
	unitEvents := 0
	rc.SetProgress(func(ev rdd.StageEvent) {
		if ev.Name == "unit" {
			unitEvents++
		}
	})
	res, err := Run(context.Background(), rc, BlockedInMemory{}, in, Options{})
	var se *cluster.ErrLocalStorage
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want local-storage exhaustion", err)
	}
	if res == nil || res.UnitsRun == 0 || res.UnitsRun >= res.UnitsTotal || res.UnitsRun != unitEvents {
		t.Fatalf("partial result %+v after %d unit events", res, unitEvents)
	}
	if res.Blocks != nil || res.VirtualSeconds <= 0 || res.ProjectedSeconds <= res.VirtualSeconds || res.Metrics.ShuffleBytes == 0 {
		t.Fatalf("partial result lost its accounting: %+v", res)
	}
}
