package apspark

import (
	"context"
	"fmt"
	"time"

	"apspark/internal/graph"
	"apspark/internal/obs"
	"apspark/internal/seq"
	"apspark/internal/sparse"
	"apspark/internal/store"
)

// HostSolverInfo describes one host-native solver: a strategy that runs
// directly on this machine's cores against the graph's CSR arrays, with
// no virtual cluster, no simulated clock and no phantom mode.
type HostSolverInfo struct {
	Name SolverKind
	// Description is a one-line summary for CLI listings.
	Description string
}

// hostSolvers is the table of host-native strategies. Unlike the
// virtual-cluster solvers (core.Solvers), these bypass the RDD engine
// entirely, so they share only the Session surface, not the Solver
// interface.
var hostSolvers = []HostSolverInfo{
	{Name: SolverDijkstra, Description: "Dijkstra from every source over the CSR graph; O(n·(m + n log n)), the sparse-graph fast path"},
}

// HostSolvers lists the registered host-native solvers.
func HostSolvers() []HostSolverInfo {
	return append([]HostSolverInfo(nil), hostSolvers...)
}

// IsHostSolver reports whether name selects a host-native solver.
func IsHostSolver(name SolverKind) bool {
	for _, h := range hostSolvers {
		if h.Name == name {
			return true
		}
	}
	return false
}

// SolveToStore solves g and persists the distance matrix as a tiled
// store at path, combining Session.Solve and Result.WriteStore. With a
// host-native solver the distances are streamed: completed source rows
// are cut into tiles and written panel by panel, so peak residency is
// O(b·n) and the full n x n matrix is never materialized — the only way
// to solve graphs whose distance matrix exceeds RAM. Virtual-cluster
// solvers fall back to a full in-memory solve followed by a store write.
// The store appears at path only when the whole solve succeeds; a
// cancelled or killed streamed solve leaves no store at path, but does
// leave its checkpoint (path+".partial" and path+".manifest", durable
// after every panel), so a later call with WithResume restarts from the
// last completed panel and re-solves only the unfinished source rows —
// the finished store is byte-identical to an uninterrupted run either
// way (Result.UnitsSkipped counts the rows the resume skipped). Dist on
// the returned Result is nil for streamed solves (use OpenStore to
// query), and WithVerify is rejected there — a streamed solve keeps no
// matrix to cross-check; the cluster fallback materializes the matrix
// and honors WithVerify like Solve does.
func (s *Session) SolveToStore(ctx context.Context, g *Graph, path string, opts ...SolveOption) (*Result, error) {
	if g == nil {
		return nil, fmt.Errorf("apspark: SolveToStore with nil graph")
	}
	if path == "" {
		return nil, fmt.Errorf("apspark: SolveToStore with empty path")
	}
	job, err := s.job(opts)
	if err != nil {
		return nil, err
	}
	if IsHostSolver(job.solver) {
		return s.runHost(ctx, g, job, path)
	}
	// The cluster fallback materializes the matrix through run (which
	// rejects store-only knobs) and encodes it at write time, so -codec
	// behaves identically whichever solver produced the distances.
	codec := job.codec
	job.codec = ""
	res, err := s.run(ctx, g, g.N, job)
	if err != nil {
		return res, err
	}
	if res.Dist == nil {
		return res, fmt.Errorf("apspark: truncated run has no distance matrix to store")
	}
	if err := res.WriteStoreWithCodec(path, res.BlockSize, codec); err != nil {
		return res, err
	}
	return res, nil
}

// runHost executes one host-native job: an in-memory solve when
// storePath is empty, a streamed store write otherwise. It mirrors the
// virtual-cluster run contract — partial Result plus ctx.Err() on
// cancellation, progress events per unit of work — but the clock fields
// stay zero: host solves charge nothing to any virtual cluster.
// Cluster-only knobs that are detectable (WithMaxUnits, WithTrace) are
// rejected loudly; the partitioner and parts-per-core settings carry
// their defaults on every job and so cannot be told apart from an
// explicit choice — they simply don't apply here (see their option
// docs).
func (s *Session) runHost(ctx context.Context, g *Graph, job jobSettings, storePath string) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if job.maxUnits != 0 {
		return nil, fmt.Errorf("apspark: WithMaxUnits is a virtual-cluster projection knob; host-native solver %q runs to completion", job.solver)
	}
	if job.trace {
		return nil, fmt.Errorf("apspark: WithTrace records the virtual stage timeline; host-native solver %q has no stages (use WithProgress)", job.solver)
	}
	if job.partSize != 0 || job.partSeed != 0 {
		return nil, fmt.Errorf("apspark: WithPartSize/WithPartSeed configure BuildHierarchy; flat solver %q has no partitions", job.solver)
	}
	n := g.N
	// Host solves tile by store panels, not by cluster decomposition, so
	// the automatic block size follows WriteStore's preference (256).
	b := graph.DefaultBlockSize(job.blockSize, n, 256)
	res := &Result{Solver: hostSolverName(job.solver), BlockSize: b, UnitsTotal: n}

	eng := sparse.New(g)
	// Host solves trace like cluster solves: one root span for the job,
	// and the engine's telemetry (sources/sec, settled vertices, panel
	// emit latency) registered process-wide so an end-of-run metric dump
	// sees it. Registration replaces any prior engine's bindings.
	eng.RegisterMetrics(obs.Default)
	tr := obs.DefaultTracer()
	span := tr.Start("solve", string(job.solver))
	defer span.End()
	evSeq := 0
	sopts := sparse.Options{}
	if job.progress != nil {
		sopts.Progress = func(done, total int) {
			evSeq++
			job.progress(StageEvent{Seq: evSeq, Name: "unit", UnitsDone: done, UnitsTotal: total})
		}
	}
	finish := func(done int, err error) (*Result, error) {
		res.UnitsRun = done
		if job.progress != nil {
			evSeq++
			job.progress(StageEvent{Seq: evSeq, Name: "done", UnitsDone: done, UnitsTotal: n, Done: true})
		}
		return res, err
	}

	if storePath == "" {
		if job.resume {
			return nil, fmt.Errorf("apspark: WithResume resumes a streamed store solve; an in-memory solve has no checkpoint (use SolveToStore)")
		}
		if job.codec != "" {
			return nil, fmt.Errorf("apspark: WithCodec configures the store SolveToStore writes; an in-memory solve encodes no tiles")
		}
		dist, done, err := eng.Solve(ctx, b, sopts)
		if err != nil {
			return finish(done, err)
		}
		res.Dist = dist
		out, _ := finish(done, nil)
		// Verify after the final progress event, mirroring the cluster
		// path (FinishProgress precedes its verify check too).
		if job.verify {
			want, err := seq.FloydWarshall(g)
			if err != nil {
				return nil, fmt.Errorf("apspark: verify reference: %w", err)
			}
			if !dist.AllClose(want, 1e-9) {
				return nil, fmt.Errorf("apspark: %s result diverges from sequential Floyd-Warshall", res.Solver)
			}
		}
		return out, nil
	}

	if job.verify {
		return nil, fmt.Errorf("apspark: cannot verify a streamed solve (rows are written, not kept); solve in memory to verify")
	}
	if n == 0 {
		return nil, fmt.Errorf("apspark: cannot store an empty graph")
	}
	// Streamed solves always checkpoint: each panel is fsync'd and recorded
	// in a sidecar manifest before the next is solved, so a crash (or the
	// deferred Abort on cancellation) leaves a resumable partial store
	// rather than nothing. WithResume picks such a checkpoint up,
	// re-solving only the panels past the last durable one.
	codec, err := store.CodecByName(job.codec)
	if err != nil {
		return nil, err
	}
	pw, err := store.NewPanelWriterWithOptions(storePath, n, b, store.PanelWriterOptions{
		Checkpoint: true,
		Resume:     job.resume,
		Codec:      codec,
	})
	if err != nil {
		return nil, err
	}
	defer pw.Abort()
	if skipped := pw.Resumed() * pw.BlockSize(); skipped > 0 {
		if skipped > n {
			skipped = n
		}
		res.UnitsSkipped = skipped
		sopts.FirstPanel = pw.Resumed()
	}
	// Each panel's solve+write interval is observed as a "panel" span, so a
	// multi-hour streamed solve has a timeline finer than the root span.
	lastPanel := time.Now()
	done, err := eng.SolvePanels(ctx, b, sopts, func(_ int, panel *Matrix) error {
		werr := pw.WritePanel(panel)
		tr.Observe("panel", "stream", time.Since(lastPanel))
		lastPanel = time.Now()
		return werr
	})
	if err != nil {
		return finish(done, err)
	}
	if err := pw.Close(); err != nil {
		return finish(done, err)
	}
	return finish(done, nil)
}

// hostSolverName maps a host solver's lookup name to its display name.
func hostSolverName(k SolverKind) string {
	switch k {
	case SolverDijkstra:
		return "CSR Dijkstra (host)"
	}
	return string(k)
}
