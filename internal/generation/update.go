// The updater: edge deltas in, a validated new generation out.
//
// Dirty-row classification is the cheap half of the trick. For an
// undirected graph the stored matrix is symmetric, so column u of the
// matrix *is* row u — and deciding whether a changed edge (u,v) can
// affect source s needs only d(s,u) and d(s,v), i.e. two stored rows per
// changed edge, O(n) work each, instead of anything proportional to the
// matrix:
//
//   - relaxation test (new weight w'): if d(s,u)+w' < d(s,v) or
//     d(s,v)+w' < d(s,u), a path through the cheapened edge can improve
//     row s. Reachability is checked before the arithmetic: when exactly
//     one of d(s,u), d(s,v) is +Inf the edge bridges s's component to
//     the other endpoint (distances flip Inf -> finite), which the
//     tolerance math cannot see (Inf-Inf is NaN), so the row is dirty
//     outright. Any improved target t implies the first changed edge on
//     its new shortest path — whose near endpoint is always reachable
//     from s over unchanged edges — fires one of these cases, so the
//     union over changed edges is a superset of every improved row.
//   - tightness test (old weight w): if d(s,u)+w == d(s,v) or
//     d(s,v)+w == d(s,u) (within float tolerance), some old shortest
//     path from s may have crossed the edge, so raising or removing it
//     can worsen row s. The first changed edge on any old shortest path
//     is tight from s, so this union is a superset of every worsened row.
//
// Both tests run for every changed edge (a mixed batch can reroute a
// worsened path through a cheapened edge), and rows they never flag are
// provably unchanged — those panels are copied from the parent store
// byte-for-byte, CRC-verified in both directions, and only the dirty
// panels are re-solved with the sparse engine over the new graph.
package generation

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"time"

	"apspark/internal/fsx"
	"apspark/internal/graph"
	"apspark/internal/matrix"
	"apspark/internal/sparse"
	"apspark/internal/store"
)

// Delta is one edge mutation: set edge (U,V) to weight W, or remove it.
// Adding a previously absent edge is just a set. Vertices must already
// exist — generations never change n.
type Delta struct {
	U int     `json:"u"`
	V int     `json:"v"`
	W float64 `json:"w,omitempty"`
	// Remove deletes the edge; W is ignored.
	Remove bool `json:"remove,omitempty"`
}

// UpdateResult reports what one promoted delta batch did.
type UpdateResult struct {
	// Generation is the promoted generation's id; Parent is what it was
	// built from.
	Generation string `json:"generation"`
	Parent     string `json:"parent"`
	N          int    `json:"n"`
	// Deltas counts the mutations that actually changed the graph
	// (no-op deltas are dropped up front).
	Deltas int `json:"deltas"`
	// DirtyRows / DirtyPanels is the recomputed slice of the matrix;
	// TotalPanels-DirtyPanels panels were raw-copied from the parent.
	DirtyRows   int `json:"dirty_rows"`
	DirtyPanels int `json:"dirty_panels"`
	TotalPanels int `json:"total_panels"`
	// Durations of the two lifecycle halves.
	BuildMs    int64 `json:"build_ms"`
	ValidateMs int64 `json:"validate_ms"`
}

func jsonMarshal(v any) ([]byte, error) { return json.MarshalIndent(v, "", "  ") }

// dirtyTol mirrors the serving layer's path tolerance: distances come
// out of float64 min-plus chains, so the classification tests compare
// with a relative slack rather than exactly. The tightness test widens
// by it (conservative: more rows recomputed), the relaxation test
// requires an improvement beyond it (ditto symmetric treatment: a
// sub-tolerance "improvement" is float noise, but the tight test will
// already have flagged genuinely affected rows).
func dirtyTol(d float64) float64 { return 1e-9 * (1 + math.Abs(d)) }

// ApplyDeltas builds, validates and promotes a new generation from the
// current one plus a batch of edge deltas. On validation failure the
// candidate is quarantined on disk, CURRENT stays untouched, and the
// returned error wraps ErrValidation. An empty effective batch (every
// delta a no-op) returns an error wrapping ErrBadDelta rather than
// minting an identical generation. The whole operation runs under the
// directory's cross-process advisory lock; when another process holds it
// the error wraps ErrBusy and nothing was started.
func (m *Manager) ApplyDeltas(ctx context.Context, deltas []Delta) (*UpdateResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.updates.Add(1)
	lock, err := fsx.LockDir(m.dir)
	if err != nil {
		m.updateFailures.Add(1)
		return nil, fmt.Errorf("generation: update: %w", err)
	}
	defer lock.Unlock()
	res, err := m.applyLocked(ctx, deltas)
	if err != nil {
		m.updateFailures.Add(1)
		return nil, err
	}
	return res, nil
}

// changedEdge is one effective mutation with both weights resolved
// (matrix.Inf encodes "absent" on either side).
type changedEdge struct {
	u, v       int
	wOld, wNew float64
}

func (m *Manager) applyLocked(ctx context.Context, deltas []Delta) (*UpdateResult, error) {
	cur := m.cur.Load()
	n, b := cur.n, cur.b

	// Resolve the batch against the current edge set: weight lookups,
	// no-op elimination, and the final edge list for the new graph.
	edges := cur.g.Edges()
	type ekey struct{ u, v int }
	weight := make(map[ekey]float64, len(edges))
	for _, e := range edges {
		weight[ekey{e.U, e.V}] = e.W
	}
	var changes []changedEdge
	for i, d := range deltas {
		u, v := d.U, d.V
		if u > v {
			u, v = v, u
		}
		if u < 0 || v >= n || u == v {
			return nil, fmt.Errorf("%w: delta[%d]: edge (%d,%d) invalid for n=%d", ErrBadDelta, i, d.U, d.V, n)
		}
		wOld, exists := weight[ekey{u, v}]
		if !exists {
			wOld = matrix.Inf
		}
		wNew := matrix.Inf
		if !d.Remove {
			wNew = d.W
			if math.IsNaN(wNew) || math.IsInf(wNew, 0) || wNew < 0 {
				return nil, fmt.Errorf("%w: delta[%d]: weight %v on edge (%d,%d) must be finite and >= 0", ErrBadDelta, i, d.W, d.U, d.V)
			}
		}
		if wOld == wNew || (d.Remove && !exists) {
			continue // no-op
		}
		changes = append(changes, changedEdge{u: u, v: v, wOld: wOld, wNew: wNew})
		if d.Remove {
			delete(weight, ekey{u, v})
		} else {
			weight[ekey{u, v}] = wNew
		}
	}
	if len(changes) == 0 {
		return nil, fmt.Errorf("%w: batch is a no-op against %s", ErrBadDelta, cur.id)
	}
	newEdges := make([]graph.Edge, 0, len(weight))
	for k, w := range weight {
		newEdges = append(newEdges, graph.Edge{U: k.u, V: k.v, W: w})
	}
	newGraph, err := graph.FromEdges(n, newEdges)
	if err != nil {
		return nil, fmt.Errorf("generation: building updated graph: %w", err)
	}

	// Classify dirty source rows against the parent store.
	parent, err := store.OpenWithOptions(filepath.Join(m.dir, cur.id, storeName), m.opts.Store)
	if err != nil {
		return nil, fmt.Errorf("generation: open parent %s: %w", cur.id, err)
	}
	defer parent.Close()
	dirty, dirtyRows, err := classifyDirty(ctx, parent, changes)
	if err != nil {
		return nil, err
	}
	m.lastDirtyRows.Store(int64(dirtyRows))

	// Dirty rows -> dirty panels.
	q := parent.TilesPerSide()
	dirtyPanel := make([]bool, q)
	dirtyPanels := 0
	for r, d := range dirty {
		if d && !dirtyPanel[r/b] {
			dirtyPanel[r/b] = true
			dirtyPanels++
		}
	}

	// Build the candidate generation directory.
	seq := maxSeq(m.dir) + 1
	id := genID(seq)
	buildStart := time.Now()
	building := filepath.Join(m.dir, id+buildingSuffix)
	if err := os.RemoveAll(building); err != nil {
		return nil, err
	}
	if err := os.Mkdir(building, 0o755); err != nil {
		return nil, err
	}
	fail := func(err error) (*UpdateResult, error) {
		os.RemoveAll(building)
		return nil, err
	}
	if err := m.buildStore(ctx, filepath.Join(building, storeName), parent, newGraph, dirtyPanel); err != nil {
		return fail(fmt.Errorf("generation: building %s: %w", id, err))
	}
	if err := publish(filepath.Join(building, graphName), newGraph.WriteEdgeList); err != nil {
		return fail(err)
	}
	if err := writeMeta(building, meta{
		ID: id, Parent: cur.id, N: n,
		DirtyRows: dirtyRows, Deltas: len(changes),
		Created:    time.Now().UTC().Format(time.RFC3339),
		BuildMilli: time.Since(buildStart).Milliseconds(),
	}); err != nil {
		return fail(err)
	}
	if err := fsx.RenameDurable(building, filepath.Join(m.dir, id)); err != nil {
		return fail(err)
	}
	buildMs := time.Since(buildStart).Milliseconds()

	// Validation gate: any failure quarantines the candidate and leaves
	// CURRENT untouched.
	hook("mid-validate")
	valStart := time.Now()
	if err := m.validate(ctx, id, newGraph, dirty); err != nil {
		m.quarantines.Add(1)
		quarantined := filepath.Join(m.dir, id+quarantineSufix)
		if rerr := fsx.RenameDurable(filepath.Join(m.dir, id), quarantined); rerr != nil {
			slog.Error("generation: quarantine rename failed", "id", id, "err", rerr)
		}
		slog.Error("generation: candidate quarantined, CURRENT untouched",
			"id", id, "current", cur.id, "err", err)
		return nil, fmt.Errorf("%w: %s: %w", ErrValidation, id, err)
	}
	valMs := time.Since(valStart).Milliseconds()

	// Promote: durable CURRENT rewrite, then in-memory state, then GC.
	if err := writeCurrent(m.dir, id); err != nil {
		return nil, err
	}
	m.cur.Store(&genState{id: id, seq: seq, g: newGraph, n: n, b: b})
	m.promotions.Add(1)
	m.lastPromoteNano.Store(time.Now().UnixNano())
	m.gcLocked()
	slog.Info("generation: promoted",
		"id", id, "parent", cur.id, "deltas", len(changes),
		"dirty_rows", dirtyRows, "dirty_panels", dirtyPanels, "total_panels", q,
		"build_ms", buildMs, "validate_ms", valMs)
	return &UpdateResult{
		Generation: id, Parent: cur.id, N: n,
		Deltas: len(changes), DirtyRows: dirtyRows,
		DirtyPanels: dirtyPanels, TotalPanels: q,
		BuildMs: buildMs, ValidateMs: valMs,
	}, nil
}

// classifyDirty runs the relaxation and tightness tests for every
// changed edge over the parent store's rows, returning the dirty bitmap
// and its population count.
func classifyDirty(ctx context.Context, parent *store.Store, changes []changedEdge) ([]bool, int, error) {
	n := parent.N()
	dirty := make([]bool, n)
	rowU := make([]float64, 0, n)
	rowV := make([]float64, 0, n)
	for _, ch := range changes {
		var err error
		// Undirected symmetry: row u of the matrix is column u, so these
		// two rows carry d(s,u) and d(s,v) for every source s.
		rowU, err = parent.RowInto(ctx, ch.u, rowU)
		if err != nil {
			return nil, 0, fmt.Errorf("generation: classifying against row %d: %w", ch.u, err)
		}
		rowV, err = parent.RowInto(ctx, ch.v, rowV)
		if err != nil {
			return nil, 0, fmt.Errorf("generation: classifying against row %d: %w", ch.v, err)
		}
		for s := 0; s < n; s++ {
			if dirty[s] {
				continue
			}
			du, dv := rowU[s], rowV[s]
			// Relaxation with the new weight: can the changed edge build
			// a strictly better path for source s? Reachability first —
			// the tolerance arithmetic is blind to Inf (Inf-Inf is NaN,
			// every comparison false): an edge whose endpoints straddle
			// s's component is exactly the bridge case, d(s,·) flipping
			// from Inf to finite, so the row is dirty by definition. Both
			// endpoints unreachable means this edge alone cannot shorten
			// any path from s; in a batch, the first changed edge along an
			// improved path has a reachable near endpoint and flags s.
			if ch.wNew < matrix.Inf {
				uInf, vInf := math.IsInf(du, 1), math.IsInf(dv, 1)
				if uInf != vInf {
					dirty[s] = true
					continue
				}
				if !uInf && (du+ch.wNew < dv-dirtyTol(dv) || dv+ch.wNew < du-dirtyTol(du)) {
					dirty[s] = true
					continue
				}
			}
			// Tightness with the old weight: might an old shortest path
			// from s have crossed the edge? (Inf arithmetic yields NaN
			// comparisons that are false, which is the right answer: an
			// unreachable endpoint carried no shortest path.)
			if ch.wOld < matrix.Inf {
				if math.Abs(du+ch.wOld-dv) <= dirtyTol(dv) || math.Abs(dv+ch.wOld-du) <= dirtyTol(du) {
					dirty[s] = true
				}
			}
		}
	}
	count := 0
	for _, d := range dirty {
		if d {
			count++
		}
	}
	return dirty, count, nil
}

// buildStore writes the candidate store: dirty panels re-solved with the
// sparse engine over the new graph, exactly as SolveToStore solves them —
// the same cell type, each panel seeded from the panels the candidate
// already holds, copied or re-solved, every one the new graph's distances
// — and clean panels raw-copied (and CRC-verified both ways) from the
// parent in their turn, through the solve's Supply. The mid-build crash
// hook fires after the first panel lands, the worst possible instant for a
// torn build.
func (m *Manager) buildStore(ctx context.Context, path string, parent *store.Store, g *graph.Graph, dirtyPanel []bool) error {
	// The child inherits the parent's preferred codec: re-solved dirty
	// panels re-encode at the same density the clean raw-copied panels
	// carry over, so compression survives the generation lifecycle.
	w, err := store.NewPanelWriterWithOptions(path, parent.N(), parent.BlockSize(), store.PanelWriterOptions{Codec: parent.PreferredCodec()})
	if err != nil {
		return err
	}
	defer w.Abort()
	var raw []byte
	copyClean := func(bi int) (bool, error) {
		if bi == 1 {
			hook("mid-build")
		}
		if dirtyPanel[bi] {
			return false, nil
		}
		var metas []store.TileMeta
		var err error
		if raw, metas, err = parent.ReadPanelRaw(bi, raw); err != nil {
			// A corrupt parent panel cannot be copied — but it can be
			// recomputed: the engine solves it from the (new) graph. Clean
			// rows solve to the same distances by construction.
			slog.Warn("generation: parent panel unreadable, recomputing", "panel", bi, "err", err)
			return false, nil
		}
		return true, w.WriteRawPanel(raw, metas)
	}
	if _, err := sparse.New(g).SolveTo(ctx, w, sparse.Options{Supply: copyClean}); err != nil {
		return err
	}
	return w.Close()
}
