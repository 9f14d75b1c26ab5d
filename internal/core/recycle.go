package core

import (
	"apspark/internal/matrix"
	"apspark/internal/rdd"
)

// recycler returns the release hook a blocked solver hands to
// rdd.CheckpointAndRelease on every iteration of one solve over in. It
// applies the ownership rule of the package comment: of the blocks the
// severed lineage retained, those that neither the new generation holds nor
// the caller owns (the input blocks) go back to the matrix arena, each once.
// A phantom run has no elements to recycle and gets no hook.
func recycler(in Input) func(severed, kept [][]rdd.Pair) {
	if in.Phantom() {
		return nil
	}
	return func(severed, kept [][]rdd.Pair) {
		hold := make(map[*matrix.Block]struct{}, 2*len(in.Blocks))
		for _, b := range in.Blocks {
			hold[b] = struct{}{}
		}
		eachBlock(kept, func(b *matrix.Block) { hold[b] = struct{}{} })
		eachBlock(severed, func(b *matrix.Block) {
			if _, held := hold[b]; !held {
				hold[b] = struct{}{} // severed partitions repeat records
				matrix.Put(b)
			}
		})
	}
}

// eachBlock calls fn for every block the records' values reference: both
// orientations of tagged blocks.
func eachBlock(parts [][]rdd.Pair, fn func(*matrix.Block)) {
	for _, part := range parts {
		for _, rec := range part {
			tb, ok := rec.Value.(*TaggedBlock)
			if !ok || tb == nil {
				continue
			}
			if tb.B != nil {
				fn(tb.B)
			}
			if tb.T != nil {
				fn(tb.T)
			}
		}
	}
}
