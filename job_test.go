package apspark

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
)

// TestJobOptionMatrix pins which jobs take which option: each of the
// eleven job options, set to a non-default value, on every entry point
// with a virtual-cluster solver (cb) and the host solver (dij), plus
// BuildHierarchy. A cell is "ok" (the job ran), "reject" (refused with no
// Result) or "partial" (it ran, then failed with a partial Result). A
// refusal the option causes names the option.
func TestJobOptionMatrix(t *testing.T) {
	g := hostTestGraph(t, 24, 4, 51)
	s, err := New(WithCluster(*tinyCluster()))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Each column runs one job and reports whether it returned a Result
	// (or Oracle), and its error.
	type column struct {
		name string
		run  func(opts ...SolveOption) (bool, error)
	}
	var columns []column
	for _, k := range []SolverKind{SolverCB, SolverDijkstra} {
		k := k
		columns = append(columns,
			column{"Solve/" + string(k), func(opts ...SolveOption) (bool, error) {
				res, err := s.Solve(ctx, g, append(opts, WithSolver(k))...)
				return res != nil, err
			}},
			column{"Project/" + string(k), func(opts ...SolveOption) (bool, error) {
				res, err := s.Project(ctx, g.N, append(opts, WithSolver(k))...)
				return res != nil, err
			}},
			column{"SolveToStore/" + string(k), func(opts ...SolveOption) (bool, error) {
				path := filepath.Join(t.TempDir(), "d.apsp")
				res, err := s.SolveToStore(ctx, g, path, append(opts, WithSolver(k))...)
				return res != nil, err
			}})
	}
	columns = append(columns, column{"BuildHierarchy", func(opts ...SolveOption) (bool, error) {
		o, err := s.BuildHierarchy(ctx, g, opts...)
		return o != nil, err
	}})

	// Columns, in order: Solve, Project and SolveToStore with cb, the
	// same three with dij, then BuildHierarchy. The first row sets no
	// option.
	rows := []struct {
		option string
		opt    SolveOption
		want   string
	}{
		{"", nil, "ok ok ok ok reject ok ok"},
		{"WithBlockSize", WithBlockSize(8), "ok ok ok ok reject ok reject"},
		{"WithPartitioner", WithPartitioner(PartitionerPH), "ok ok ok reject reject reject reject"},
		{"WithPartsPerCore", WithPartsPerCore(3), "ok ok ok reject reject reject reject"},
		{"WithMaxUnits", WithMaxUnits(1), "ok ok partial reject reject reject reject"},
		{"WithVerify", WithVerify(true), "ok ok ok ok reject reject ok"},
		{"WithTrace", WithTrace(true), "ok ok ok reject reject reject reject"},
		{"WithResume", WithResume(true), "reject reject reject reject reject ok reject"},
		{"WithCodec", WithCodec("ivarint"), "reject reject ok reject reject ok reject"},
		{"WithPartSize", WithPartSize(8), "reject reject reject reject reject reject ok"},
		{"WithPartSeed", WithPartSeed(4), "reject reject reject reject reject reject ok"},
		{"WithProgress", WithProgress(func(StageEvent) {}), "ok ok ok ok reject ok ok"},
	}
	base := strings.Fields(rows[0].want)
	for _, row := range rows {
		var got []string
		for i, c := range columns {
			hasResult, err := c.run(row.opt)
			switch {
			case err == nil:
				got = append(got, "ok")
			case hasResult:
				got = append(got, "partial")
			default:
				got = append(got, "reject")
				if row.option != "" && base[i] == "ok" && !strings.Contains(err.Error(), row.option) {
					t.Errorf("%s on %s: the error does not name the option: %v", row.option, c.name, err)
				}
			}
		}
		if cells := strings.Join(got, " "); cells != row.want {
			t.Errorf("%s: got %q, want %q", row.option, cells, row.want)
		}
	}
}
