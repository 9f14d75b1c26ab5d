package core

import (
	"context"
	"fmt"

	"apspark/internal/cluster"
	"apspark/internal/costmodel"
	"apspark/internal/graph"
	"apspark/internal/matrix"
	"apspark/internal/rdd"
)

// NewContext builds the fresh virtual cluster and RDD driver context of
// one job. A context is run once: its clock and metrics are the job's.
func NewContext(cfg cluster.Config, model costmodel.KernelModel) (*rdd.Context, error) {
	clu, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	return rdd.NewContext(clu, model), nil
}

// Run drives solver s over in on the driver rc: it takes ownership of
// in.Blocks (the blocked solvers update them in place and release them to
// the matrix arena, so build a fresh Input for every Run), loads them,
// applies s's step once per iteration unit, and collects the result. ctx
// (nil means context.Background()) is bound to rc and checked at every
// unit boundary. A run that stops early — cancelled, out of local storage,
// a task failure, at a step or in the final collect — returns the error
// alongside a partial Result carrying the accounting of the units that
// completed: UnitsRun, metrics, virtual time and a projection to a full
// run. A run truncated by opts.MaxUnits returns the same partial Result
// and no error. Each unit ends in a "unit" progress event and the run in
// the "done" event, so an observer's DeltaSeconds sum to VirtualSeconds.
func Run(ctx context.Context, rc *rdd.Context, s Solver, in Input, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts = opts.withDefaults()
	rc.BindContext(ctx)
	defer rc.FinishProgress()
	part, err := NewPartitioner(opts.Partitioner, rc.Cluster, opts.PartsPerCore, in.Dec.Q)
	if err != nil {
		return nil, err
	}
	if !s.Pure() {
		rc.MarkImpure()
	}
	// The run owns in.Blocks: once the first unit has run, the arena may
	// have handed them on, so whether the input is phantom is read now.
	phantom := in.Phantom()
	a := parallelizeInput(rc, in, part)
	next := s.step(rc, in, part)

	units := s.Units(in.Dec)
	run := units
	if opts.MaxUnits > 0 && opts.MaxUnits < run {
		run = opts.MaxUnits
	}
	durations := make([]float64, 0, run)
	// partial is the accounting of a run that stopped after done units:
	// everything but the distances.
	partial := func(done int) *Result {
		res := &Result{
			Solver:         s.Name(),
			N:              in.Dec.N,
			BlockSize:      in.Dec.B,
			UnitsRun:       done,
			UnitsTotal:     units,
			Metrics:        rc.Cluster.Metrics(),
			VirtualSeconds: rc.Cluster.Now(),
		}
		if done > 0 {
			res.ProjectedSeconds = res.VirtualSeconds / float64(done) * float64(units)
			if p, ok := s.(projector); ok {
				res.ProjectedSeconds = p.project(durations, res.VirtualSeconds, in.Dec)
			}
		}
		return res
	}

	for u := 0; u < run; u++ {
		if err := ctx.Err(); err != nil {
			return partial(u), err
		}
		start := rc.Cluster.Now()
		b, err := next(u, a)
		if err != nil {
			return partial(u), err
		}
		a = b
		durations = append(durations, rc.Cluster.Now()-start)
		rc.ReportUnit(u+1, units)
	}
	if run < units {
		return partial(run), nil
	}

	blocks, err := collectBlocks(a, in.Dec)
	if err != nil {
		return partial(run), err
	}
	res := partial(run) // after the collect: it ran one more stage
	res.ProjectedSeconds = res.VirtualSeconds
	res.Blocks = blocks
	if !phantom {
		if res.Dist, err = graph.Assemble(blocks, in.Dec); err != nil {
			return partial(run), err
		}
	}
	return res, nil
}

// step is one iteration unit of a solver: it takes the distance matrix
// after units 0..u-1 and returns it after unit u. Everything a run keeps
// between units — a recycler, the columns of an unfinished squaring — lives
// in the closure Solver.step returns.
type step func(u int, a *rdd.RDD) (*rdd.RDD, error)

// projector is implemented by a solver whose units do not cost alike, so
// that a truncated run's projection is better than UnitsTotal times the
// mean unit. durations are the virtual seconds of each completed unit.
type projector interface {
	project(durations []float64, virtual float64, dec graph.Decomposition) float64
}

// parallelizeInput loads the input blocks into the engine.
func parallelizeInput(rc *rdd.Context, in Input, part rdd.Partitioner) *rdd.RDD {
	pairs := make([]rdd.Pair, 0, len(in.Blocks))
	for _, k := range in.Dec.UpperKeys() {
		pairs = append(pairs, rdd.Pair{Key: k, Value: &TaggedBlock{Tag: TagBase, B: in.Blocks[k]}})
	}
	return rc.Parallelize("A", pairs, part)
}

// collectBlocks gathers a solver's final RDD back into a block map,
// validating that exactly the upper triangle is present.
func collectBlocks(a *rdd.RDD, dec graph.Decomposition) (map[graph.BlockKey]*matrix.Block, error) {
	pairs, err := a.Collect()
	if err != nil {
		return nil, err
	}
	out := make(map[graph.BlockKey]*matrix.Block, len(pairs))
	for _, p := range pairs {
		tb, ok := p.Value.(*TaggedBlock)
		if !ok {
			return nil, fmt.Errorf("core: unexpected value type %T", p.Value)
		}
		if _, dup := out[p.Key]; dup {
			return nil, fmt.Errorf("core: duplicate block %v in result", p.Key)
		}
		out[p.Key] = tb.B
	}
	if len(out) != dec.NumUpperBlocks() {
		return nil, fmt.Errorf("core: result has %d blocks, want %d", len(out), dec.NumUpperBlocks())
	}
	return out, nil
}
