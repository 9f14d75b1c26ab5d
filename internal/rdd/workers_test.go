package rdd

import (
	"testing"

	"apspark/internal/cluster"
	"apspark/internal/costmodel"
)

func workersTestContext(t *testing.T) *Context {
	t.Helper()
	cfg := cluster.Paper()
	cfg.Nodes = 2
	cfg.CoresPerNode = 4
	clu, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return NewContext(clu, costmodel.PaperKernels())
}

// TestTaskContextWorkerBudget verifies the idle-core accounting: a stage
// with fewer tasks than host workers hands each task the surplus, a
// saturated stage hands each task exactly one thread.
func TestTaskContextWorkerBudget(t *testing.T) {
	ctx := workersTestContext(t)
	ctx.SetHostWorkers(8)

	budget := func(tasks int) []int {
		got := make([]int, tasks)
		_, err := ctx.runStage("probe", tasks, func(tc *TaskContext, i int) ([]Pair, error) {
			got[i] = tc.Workers()
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}

	for _, want := range []struct{ tasks, budget int }{
		{1, 8}, {2, 4}, {3, 2}, {8, 1}, {16, 1},
	} {
		for i, got := range budget(want.tasks) {
			if got != want.budget {
				t.Fatalf("stage with %d tasks: task %d got budget %d, want %d", want.tasks, i, got, want.budget)
			}
		}
	}
}

// TestSetHostWorkersFloor checks the engine never hands out a zero budget
// and clamps pathological overrides.
func TestSetHostWorkersFloor(t *testing.T) {
	ctx := workersTestContext(t)
	ctx.SetHostWorkers(-3)
	_, err := ctx.runStage("probe", 4, func(tc *TaskContext, i int) ([]Pair, error) {
		if tc.Workers() != 1 {
			t.Fatalf("budget = %d, want 1", tc.Workers())
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
