// The validation gate in front of promotion. A candidate generation is
// only allowed to become CURRENT after three independent checks:
//
//  1. geometry — the candidate opens, and its (n, b) matches the parent
//     (a swap must never change the shape a serving engine is bound to);
//  2. per-tile CRC spot-check — a deterministic sample of tiles is read
//     cold, which verifies their CRC32C on the way in, so a corrupt
//     candidate fails before any query can touch it;
//  3. sampled differential rows — a mix of dirty and clean rows is
//     recomputed from scratch (Dijkstra over the new graph) and diffed
//     against the candidate within float tolerance (in an f32 tile, the
//     reference's float32 rounding also passes), which catches a
//     wrong *classification* (a row that changed but was copied) as
//     well as a wrong solve.
//
// Any failure quarantines the candidate directory and leaves CURRENT
// untouched — the caller keeps serving the old generation.
package generation

import (
	"context"
	"fmt"
	"math"
	"path/filepath"

	"apspark/internal/graph"
	"apspark/internal/sparse"
	"apspark/internal/store"
)

// validate runs the promotion gate against the candidate generation id.
func (m *Manager) validate(ctx context.Context, id string, g *graph.Graph, dirty []bool) error {
	cur := m.cur.Load()
	cand, err := store.OpenWithOptions(filepath.Join(m.dir, id, storeName), store.Options{})
	if err != nil {
		return fmt.Errorf("candidate does not open: %w", err)
	}
	defer cand.Close()

	// Geometry.
	if cand.N() != cur.n || cand.BlockSize() != cur.b {
		return fmt.Errorf("candidate geometry n=%d b=%d, parent n=%d b=%d",
			cand.N(), cand.BlockSize(), cur.n, cur.b)
	}

	// CRC spot-check: a deterministic stride across the tile grid plus
	// the main diagonal's corners. Reading a tile cold verifies its
	// checksum; ErrCorruptTile here is exactly the signal we want.
	q := cand.TilesPerSide()
	total := q * q
	samples := validateTiles
	if samples > total {
		samples = total
	}
	seen := make(map[int]bool, samples+2)
	for i := 0; i < samples; i++ {
		seen[(i*total)/samples] = true
	}
	seen[0] = true
	seen[total-1] = true
	for id2 := range seen {
		if err := ctx.Err(); err != nil {
			return err
		}
		if _, err := cand.Tile(ctx, id2/q, id2%q); err != nil {
			return fmt.Errorf("tile (%d,%d) spot-check: %w", id2/q, id2%q, err)
		}
	}

	// Differential rows: recompute a sample from scratch and diff. Mix
	// dirty rows (exercise the fresh solve) with clean ones (exercise
	// the copy *and* the classification — a changed-but-copied row shows
	// up here as a mismatch against the new graph's truth).
	rows := sampleRows(dirty, validateRows)
	eng := sparse.New(g)
	ref := make([]float64, cand.N())
	got := make([]float64, 0, cand.N())
	for _, r := range rows {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := eng.SolveRowInto(r, ref); err != nil {
			return fmt.Errorf("differential reference row %d: %w", r, err)
		}
		var err error
		got, err = cand.RowInto(ctx, r, got)
		if err != nil {
			return fmt.Errorf("differential candidate row %d: %w", r, err)
		}
		for j := range ref {
			a, b := ref[j], got[j]
			if math.IsInf(a, 1) && math.IsInf(b, 1) {
				continue
			}
			// An f32 tile holds the reference's float32 rounding.
			if math.Abs(a-b) > dirtyTol(a) &&
				(cand.TileCodec(r/cand.BlockSize(), j/cand.BlockSize()) != store.CodecF32 || b != float64(float32(a))) {
				return fmt.Errorf("differential row %d diverges at column %d: candidate %v, reference %v", r, j, b, a)
			}
		}
	}
	return nil
}

// sampleRows picks up to limit dirty rows and up to limit clean rows,
// deterministically spread across the matrix.
func sampleRows(dirty []bool, limit int) []int {
	var dirtyIdx, cleanIdx []int
	for r, d := range dirty {
		if d {
			dirtyIdx = append(dirtyIdx, r)
		} else {
			cleanIdx = append(cleanIdx, r)
		}
	}
	pick := func(from []int) []int {
		if len(from) <= limit {
			return from
		}
		out := make([]int, 0, limit)
		for i := 0; i < limit; i++ {
			out = append(out, from[(i*len(from))/limit])
		}
		return out
	}
	return append(pick(dirtyIdx), pick(cleanIdx)...)
}
