package apspark

import (
	"context"
	"fmt"
	"time"

	"apspark/internal/graph"
	"apspark/internal/obs"
	"apspark/internal/sparse"
	"apspark/internal/store"
)

// SolveToStore solves g and persists the distance matrix as a tiled
// store at path, combining Session.Solve and Result.WriteStore. With the
// host-native solver (SolverDijkstra) the distances are streamed:
// completed source rows are cut into tiles and written panel by panel, so
// peak residency is O(b·n) and the full n x n matrix is never
// materialized — the only way to solve graphs whose distance matrix
// exceeds RAM. Virtual-cluster solvers fall back to a full in-memory
// solve followed by a store write. The store appears at path only when
// the whole solve succeeds; a cancelled or killed streamed solve leaves
// no store at path, but does leave its checkpoint (path+".partial" and
// path+".manifest", durable after every panel), so a later call with
// WithResume restarts from the last completed panel and re-solves only
// the unfinished source rows — the finished store is byte-identical to
// an uninterrupted run either way (Result.UnitsSkipped counts the rows
// the resume skipped). Dist on the returned Result is nil for streamed
// solves (use OpenStore to query).
func (s *Session) SolveToStore(ctx context.Context, g *Graph, path string, opts ...SolveOption) (*Result, error) {
	if path == "" {
		return nil, fmt.Errorf("apspark: SolveToStore with empty path")
	}
	j, err := s.accept(storeEntry, g, opts)
	if err != nil {
		return nil, err
	}
	if j.solver == SolverDijkstra {
		return s.runHost(ctx, g, j, path)
	}
	// The cluster fallback encodes the matrix at write time, so a codec
	// behaves identically whichever solver produced the distances.
	res, err := s.run(ctx, g, g.N, j)
	if err != nil {
		return res, err
	}
	if res.Dist == nil {
		return res, fmt.Errorf("apspark: truncated run has no distance matrix to store")
	}
	return res, res.WriteStoreWithCodec(path, res.BlockSize, j.codec)
}

// runHost executes one job of the host-native solver: an in-memory solve
// when storePath is empty, a streamed store write otherwise. It mirrors
// the virtual-cluster run contract — partial Result plus ctx.Err() on
// cancellation, progress events per unit of work — but the clock fields
// stay zero: host solves charge nothing to any virtual cluster.
func (s *Session) runHost(ctx context.Context, g *Graph, j job, storePath string) (*Result, error) {
	n := g.N
	// Host solves tile by store panels, not by cluster decomposition, so
	// the automatic block size follows WriteStore's preference (256).
	b := graph.DefaultBlockSize(j.blockSize, n, 256)
	res := &Result{Solver: "CSR Dijkstra (host)", BlockSize: b, UnitsTotal: n}

	eng := sparse.New(g)
	// The engine's telemetry (sources/sec, settled vertices, panel emit
	// latency) is registered process-wide so an end-of-run metric dump
	// sees it. Registration replaces any prior engine's bindings.
	eng.RegisterMetrics(obs.Default)
	defer j.span().End()
	p := &progress{fn: j.progress}
	sopts := sparse.Options{Progress: p.unit}

	// Streamed solves always checkpoint: each panel is fsync'd and recorded
	// in a sidecar manifest before the next is solved, so a crash (or the
	// deferred Abort on cancellation) leaves a resumable partial store
	// rather than nothing. WithResume picks such a checkpoint up,
	// re-solving only the panels past the last durable one.
	var pw *store.PanelWriter
	if storePath != "" {
		if n == 0 {
			return nil, fmt.Errorf("apspark: cannot store an empty graph")
		}
		codec, err := store.CodecByName(j.codec)
		if err != nil {
			return nil, err
		}
		pw, err = store.NewPanelWriterWithOptions(storePath, n, b, store.PanelWriterOptions{
			Checkpoint: true,
			Resume:     j.resume,
			Codec:      codec,
		})
		if err != nil {
			return nil, err
		}
		defer pw.Abort()
		res.UnitsSkipped = min(pw.NextPanel()*pw.BlockSize(), n)
		// Each panel's solve+write interval is observed as a "panel" span,
		// so a multi-hour streamed solve has a timeline finer than the root
		// span.
		lastPanel := time.Now()
		sopts.Progress = func(rowsDone, rowsTotal int) {
			obs.DefaultTracer().Observe("panel", "stream", time.Since(lastPanel))
			lastPanel = time.Now()
			p.unit(rowsDone, rowsTotal)
		}
	}

	var done int
	var err error
	if pw == nil {
		var dist *Matrix
		if dist, done, err = eng.Solve(ctx, b, sopts); err == nil {
			res.Dist = dist
		}
	} else if done, err = eng.SolveTo(ctx, pw, sopts); err == nil {
		err = pw.Close()
	}
	res.UnitsRun = done
	p.done(done, n)
	if err != nil {
		return res, err
	}
	// Verify after the final progress event, as the cluster path does.
	if j.verify && res.Dist != nil {
		if err := verifyRows(g, res.Solver+" result", rowsOf(res.Dist)); err != nil {
			return nil, err
		}
	}
	return res, nil
}
