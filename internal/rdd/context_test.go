package rdd

import (
	"context"
	"errors"
	"math"
	"testing"

	"apspark/internal/cluster"
)

// TestRunStageHonorsBoundContext: a cancelled bound context aborts the
// next stage before any task launches and surfaces ctx.Err().
func TestRunStageHonorsBoundContext(t *testing.T) {
	c := newTestContext(t, cluster.Tiny())
	part := NewPortableHash(4)
	r := c.Parallelize("src", []Pair{{Key: key(1), Value: num(1)}, {Key: key(2), Value: num(2)}}, part)

	ctx, cancel := context.WithCancel(context.Background())
	c.BindContext(ctx)
	if _, err := count(r); err != nil {
		t.Fatalf("live context blocked a stage: %v", err)
	}
	cancel()
	ran := false
	_, err := r.Map("never", func(tc *TaskContext, p Pair) (Pair, error) {
		ran = true
		return p, nil
	}).Collect()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("task function ran after cancellation")
	}
	if c.Err() == nil {
		t.Fatal("Err() did not surface the cancellation")
	}
}

// TestRunStageNilContextIsBackground: an unbound driver never cancels.
func TestRunStageNilContextIsBackground(t *testing.T) {
	c := newTestContext(t, cluster.Tiny())
	c.BindContext(nil)
	part := NewPortableHash(2)
	r := c.Parallelize("src", []Pair{{Key: key(1), Value: num(1)}}, part)
	if _, err := count(r); err != nil {
		t.Fatal(err)
	}
	if c.Err() != nil {
		t.Fatal("background context reported an error")
	}
}

// TestProgressEventsTelescope: stage events carry monotone clocks and
// deltas that sum (with the final Done event) to the cluster clock,
// including driver-side advances between stages.
func TestProgressEventsTelescope(t *testing.T) {
	c := newTestContext(t, cluster.Tiny())
	var events []StageEvent
	c.SetProgress(func(ev StageEvent) { events = append(events, ev) })

	part := NewPortableHash(4)
	pairs := []Pair{{Key: key(1), Value: num(1)}, {Key: key(2), Value: num(2)}, {Key: key(3), Value: num(3)}}
	r := c.Parallelize("src", pairs, part).
		Map("bump", func(tc *TaskContext, p Pair) (Pair, error) {
			tc.Charge(0.5)
			return p, nil
		})
	if _, err := r.Collect(); err != nil { // collect advances the driver clock after its stage
		t.Fatal(err)
	}
	c.ReportUnit(1, 1)
	c.FinishProgress()

	if len(events) < 3 {
		t.Fatalf("want stage + unit + done events, got %d", len(events))
	}
	var sum float64
	last := 0.0
	for i, ev := range events {
		sum += ev.DeltaSeconds
		if ev.VirtualSeconds < last {
			t.Fatalf("event %d clock went backwards", i)
		}
		last = ev.VirtualSeconds
	}
	if now := c.Cluster.Now(); math.Abs(sum-now) > 1e-12*math.Max(1, now) {
		t.Fatalf("deltas sum to %v, clock is %v", sum, now)
	}
	fin := events[len(events)-1]
	if !fin.Done || fin.UnitsDone != 1 || fin.UnitsTotal != 1 {
		t.Fatalf("final event: %+v", fin)
	}
	unit := events[len(events)-2]
	if unit.Name != "unit" || unit.Done {
		t.Fatalf("unit event: %+v", unit)
	}
}
