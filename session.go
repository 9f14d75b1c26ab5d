package apspark

import (
	"context"

	"apspark/internal/cluster"
	"apspark/internal/core"
	"apspark/internal/costmodel"
	"apspark/internal/graph"
	"apspark/internal/obs"
)

// Session is the context-first entry point: it owns the virtual cluster
// configuration, the kernel cost model, and a set of default solve
// options, and runs jobs against them with Solve and Project. Build one
// with New and functional options:
//
//	s, _ := apspark.New(
//	    apspark.WithClusterCores(256),
//	    apspark.WithSolver(apspark.SolverCB),
//	)
//	res, err := s.Solve(ctx, g, apspark.WithBlockSize(64))
//
// Each job instantiates a fresh virtual cluster from the session's
// configuration, so jobs are independent (virtual clocks and metrics
// never bleed across runs) and a Session is safe for concurrent use. A
// cancelled or expired ctx stops a job at the next stage boundary,
// returning the partial Result (UnitsRun, metrics and projection intact)
// alongside ctx.Err(); WithProgress streams per-stage events while the
// job runs.
type Session struct {
	cluster  cluster.Config
	model    costmodel.KernelModel
	defaults jobSettings
}

// New builds a Session. Without options it simulates the paper's
// 32-node, 1,024-core cluster with the paper-calibrated kernel model and
// solves with Blocked Collect/Broadcast, the paper's best strategy.
func New(opts ...Option) (*Session, error) {
	s := &Session{
		cluster: cluster.Paper(),
		model:   costmodel.PaperKernels(),
	}
	for _, o := range opts {
		if o == nil {
			continue
		}
		if err := o.applySession(s); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Solve runs a distributed APSP solve with real data and returns the
// distance matrix alongside the simulated cluster time. ctx cancels the
// run at the next stage boundary: the returned error is ctx.Err() and
// the returned Result is the partial accounting of the units that
// completed (Dist stays nil). nil ctx means context.Background().
func (s *Session) Solve(ctx context.Context, g *Graph, opts ...SolveOption) (*Result, error) {
	j, err := s.accept(solveEntry, g, opts)
	if err != nil {
		return nil, err
	}
	if j.solver == SolverDijkstra {
		return s.runHost(ctx, g, j, "")
	}
	return s.run(ctx, g, g.N, j)
}

// Project runs a paper-scale virtual solve on phantom (shape-only) data:
// no distances are computed, but the simulated cluster replays the full
// task, shuffle and storage schedule and reports its virtual time. The
// same cancellation and progress semantics as Solve apply.
func (s *Session) Project(ctx context.Context, n int, opts ...SolveOption) (*Result, error) {
	j, err := s.accept(projectEntry, nil, opts)
	if err != nil {
		return nil, err
	}
	return s.run(ctx, nil, n, j)
}

// run executes one virtual-cluster job: a real solve when g is non-nil,
// a phantom projection otherwise.
func (s *Session) run(ctx context.Context, g *Graph, n int, j job) (*Result, error) {
	solver, err := core.SolverByName(string(j.solver))
	if err != nil {
		return nil, err
	}
	// Only the automatic default (block size 0) is clamped; an explicit
	// block size outside [1, n] is a caller mistake and must fail loudly
	// rather than silently solve with a different tiling (WithBlockSize
	// already rejects negative values).
	b := j.blockSize
	if b == 0 {
		b = graph.DefaultBlockSize(0, n, n/8)
	}
	rc, err := core.NewContext(s.cluster, s.model)
	if err != nil {
		return nil, err
	}
	if j.trace {
		rc.Cluster.EnableTrace()
	}
	if j.progress != nil {
		rc.SetProgress(j.progress)
	}
	rc.SetTracer(obs.DefaultTracer())
	defer j.span().End()

	var in core.Input
	if g != nil {
		in, err = core.NewGraphInput(g, b)
	} else {
		in, err = core.NewPhantomInput(n, b)
	}
	if err != nil {
		return nil, err
	}

	res, err := core.Run(ctx, rc, solver, in, core.Options{
		Partitioner:  j.partitioner,
		PartsPerCore: j.partsPerCore,
		MaxUnits:     j.maxUnits,
	})
	if res == nil {
		return nil, err
	}
	out := wrap(res)
	out.Timeline = rc.Cluster.Timeline()
	if err != nil {
		return out, err
	}
	if j.verify && out.Dist != nil {
		if err := verify(g, solver.Name()+" result", out.Dist); err != nil {
			return nil, err
		}
	}
	return out, nil
}
