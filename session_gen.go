package apspark

import (
	"context"
	"fmt"

	"apspark/internal/generation"
)

// EdgeDelta is one live mutation of the served graph: set edge (U, V) to
// weight W, or remove it (Remove true; W is ignored). Undirected, like
// every edge in the system — (U, V) and (V, U) are the same edge.
type EdgeDelta = generation.Delta

// UpdateResult describes one promoted generation: how many source rows
// the delta batch dirtied, how many row panels were recomputed versus
// raw-copied from the parent, and the build/validation wall times.
type UpdateResult = generation.UpdateResult

// GenerationInfo describes one generation directory entry.
type GenerationInfo = generation.Info

// ErrGenerationValidation reports that an update produced a candidate
// generation that failed the pre-promotion validation gate and was
// quarantined; the previous generation is untouched and keeps serving.
var ErrGenerationValidation = generation.ErrValidation

// ErrGenerationBusy reports that another process held the generation
// directory's advisory lock (a concurrent update, rollback or import);
// nothing was started and the operation can simply be retried.
var ErrGenerationBusy = generation.ErrBusy

// InitGenerations publishes an already-solved store (and the graph it
// solves) as the first generation of dir — the bridge from the solve-once
// workflow to live-update serving. It refuses to run on a directory that
// already has generations. Returns the new generation id.
//
//	_, _ = s.SolveToStore(ctx, g, "dist.apsp")
//	id, _ := apspark.InitGenerations("./gens", "dist.apsp", g)
//	// then: apsp-serve -gens ./gens -admin localhost:8081
func InitGenerations(dir, storePath string, g *Graph) (string, error) {
	if g == nil {
		return "", fmt.Errorf("apspark: InitGenerations with nil graph")
	}
	return generation.Import(dir, storePath, g)
}

// ApplyDeltas ingests one edge-delta batch into the generation directory
// dir: the affected source rows are classified by an edge-relaxation test
// over the stored distances, only the dirty row panels are re-solved
// (clean panels are raw-copied with checksums verified on both sides),
// and the result is promoted through the validation gate. On validation
// failure the candidate is quarantined, the previous generation stays
// current, and the error matches ErrGenerationValidation.
//
// A serving apsp-serve process on the same directory picks the promotion
// up on SIGHUP (or performs it itself via its -admin listener — prefer
// that when the server is running, so updates serialize in one place).
// Concurrent mutators are safe either way: every update, rollback and
// import holds an exclusive advisory flock on the directory, and a call
// that loses the race fails fast with an error matching
// ErrGenerationBusy instead of corrupting the winner's build.
func (s *Session) ApplyDeltas(ctx context.Context, dir string, deltas []EdgeDelta) (*UpdateResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(deltas) == 0 {
		return nil, fmt.Errorf("apspark: ApplyDeltas with empty batch")
	}
	mgr, err := generation.Open(dir, generation.Options{})
	if err != nil {
		return nil, err
	}
	return mgr.ApplyDeltas(ctx, deltas)
}

// Generations lists the generations of dir by sequence, current and
// quarantined ones included.
func Generations(dir string) ([]GenerationInfo, error) {
	mgr, err := generation.Open(dir, generation.Options{})
	if err != nil {
		return nil, err
	}
	return mgr.Generations(), nil
}

// RollbackGeneration durably re-points dir's CURRENT at the newest
// generation older than the current one and returns its id. The
// rolled-back-from generation stays on disk until GC ages it out, so
// rolling forward again is just another promotion.
func RollbackGeneration(dir string) (string, error) {
	mgr, err := generation.Open(dir, generation.Options{})
	if err != nil {
		return "", err
	}
	return mgr.Rollback()
}
