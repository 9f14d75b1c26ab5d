package core

import (
	"fmt"

	"apspark/internal/graph"
	"apspark/internal/matrix"
	"apspark/internal/rdd"
)

// This file implements the paper's Table 1: the functional building blocks
// every solver is assembled from. Each block is a small function over
// tagged matrix blocks that (a) performs the real computation when payloads
// are dense and (b) charges the calibrated kernel cost to the task's
// virtual clock either way, so phantom paper-scale runs and real runs share
// one code path.

// Tag identifies the role a block plays while travelling through a shuffle.
type Tag uint8

const (
	// TagBase marks a block of the distance matrix A itself.
	TagBase Tag = iota
	// TagDiagCopy marks a copy of the current diagonal block (CopyDiag).
	TagDiagCopy
	// TagPanelCopy marks a copy of an updated row/column panel block
	// (CopyCol): B is canonically oriented as A[Row, i], T as A[i, Row].
	TagPanelCopy
)

// TaggedBlock is the RDD value type of the blocked solvers.
type TaggedBlock struct {
	Tag Tag
	// Row is the panel's block-row R for TagPanelCopy values.
	Row int
	B   *matrix.Block
	// T, when set, is the transpose of B, made once by the task that made
	// the value so that no Phase-3 task has to: the paper's executors hold
	// "A_IJ and its transpose" as one stored block (§4), so T travels with
	// B for free — SizeBytes counts B alone.
	T *matrix.Block
}

// SizeBytes implements rdd.Sized: the bytes of B.
func (tb *TaggedBlock) SizeBytes() int64 {
	if tb == nil || tb.B == nil {
		return 0
	}
	return tb.B.SizeBytes()
}

// withTranspose returns b's transpose in an arena block (a phantom's is a
// phantom).
func withTranspose(b *matrix.Block) (*matrix.Block, error) {
	if b.Phantom() {
		return matrix.NewPhantom(b.C, b.R), nil
	}
	t := matrix.Get(b.C, b.R)
	if err := b.TransposeInto(t); err != nil {
		return nil, err
	}
	return t, nil
}

// InColumn is the Table-1 predicate: does stored block (I, J) belong to
// column-block x? With upper-triangular storage, column x of the full
// matrix consists of stored blocks with I == x or J == x (paper §4: the
// executor owning A_IJ also owns its transpose).
func InColumn(x int) func(p rdd.Pair) bool {
	return func(p rdd.Pair) bool { return p.Key.I == x || p.Key.J == x }
}

// InPanel is InColumn(x) without the diagonal block (x, x): x's panel.
func InPanel(x int) func(p rdd.Pair) bool {
	return func(p rdd.Pair) bool { return (p.Key.I == x) != (p.Key.J == x) }
}

// NotInColumn is the complement of InColumn.
func NotInColumn(x int) func(p rdd.Pair) bool {
	return func(p rdd.Pair) bool { return p.Key.I != x && p.Key.J != x }
}

// OnDiagonal is the Table-1 predicate for the x-th diagonal block.
func OnDiagonal(x int) func(p rdd.Pair) bool {
	return func(p rdd.Pair) bool { return p.Key.I == x && p.Key.J == x }
}

// FloydWarshallBlock runs the sequential FW kernel on a diagonal block
// (Table 1: FloydWarshall), charging its O(b^3) cost. The working copy
// comes from the matrix arena (the input block stays untouched — it is
// shared through the RDD lineage), and when the engine grants this task
// more than one host worker the row-sharded parallel kernel is used;
// either path produces exactly the serial kernel's values. A phantom, never
// written, passes through as its own result.
func FloydWarshallBlock(tc *rdd.TaskContext, p rdd.Pair) (rdd.Pair, error) {
	tb := p.Value.(*TaggedBlock)
	tc.Charge(tc.Model().FloydWarshall(tb.B.R))
	if tb.B.Phantom() {
		return rdd.Pair{Key: p.Key, Value: &TaggedBlock{Tag: TagBase, B: tb.B}}, nil
	}
	nb := matrix.Get(tb.B.R, tb.B.C)
	if err := nb.CopyFrom(tb.B); err != nil {
		return rdd.Pair{}, err
	}
	if err := matrix.FloydWarshallPar(nb, tc.Workers()); err != nil {
		return rdd.Pair{}, err
	}
	return rdd.Pair{Key: p.Key, Value: &TaggedBlock{Tag: TagBase, B: nb}}, nil
}

// CopyDiag yields the q-1 copies of the processed diagonal block (i, i),
// keyed so each copy meets one stored panel block of column-block i
// (Table 1: CopyDiag). Only the keys differ: the copies share one
// read-only value.
func CopyDiag(q int) func(tc *rdd.TaskContext, p rdd.Pair) ([]rdd.Pair, error) {
	return func(tc *rdd.TaskContext, p rdd.Pair) ([]rdd.Pair, error) {
		i := p.Key.I
		diag := &TaggedBlock{Tag: TagDiagCopy, Row: i, B: p.Value.(*TaggedBlock).B}
		out := make([]rdd.Pair, 0, q-1)
		for r := 0; r < q; r++ {
			if r == i {
				continue
			}
			key := graph.BlockKey{I: r, J: i}
			if r > i {
				key = graph.BlockKey{I: i, J: r}
			}
			out = append(out, rdd.Pair{Key: key, Value: diag})
		}
		return out, nil
	}
}

// storedCanonically reports whether the stored panel block k of
// column-block i is the canonical orientation A[K, i] (stored (K, i), K < i)
// rather than its transpose (stored (i, J), J > i).
func storedCanonically(k graph.BlockKey, i int) bool { return k.J == i && k.I != i }

// UpdatePanel applies the Phase-2 update to a stored panel block of
// column-block i given the processed diagonal block (Table 1: MinPlus /
// ListUnpack's single-operand branch), in the orientation the block is
// stored in. Stored (K, i) is the canonical A[K, i]: panel = min(panel,
// panel (x) diag). Stored (i, J) is the transpose of canonical panel J, and
// the diagonal block is symmetric, so (P (x) D)^T = D (x) P^T: panel =
// min(panel, diag (x) panel) forms the same sums as transposing, updating
// canonically and transposing back, and min is exact. The product folds
// into an arena copy of base through the fused kernel.
//
// The virtual clock is charged for the paper's pipeline — which does
// canonicalize through two transposes — whichever way the host computes.
func UpdatePanel(tc *rdd.TaskContext, k graph.BlockKey, base *matrix.Block, diag *matrix.Block, i int) (*matrix.Block, error) {
	canonical := storedCanonically(k, i)
	cr, cc := base.R, base.C
	if !canonical {
		tc.Charge(tc.Model().MatMin(base.R, base.C)) // canonicalizing transpose pass
		cr, cc = base.C, base.R
	}
	tc.Charge(tc.Model().MinPlusMul(cr, cc, diag.C))
	tc.Charge(tc.Model().MatMin(cr, cc))
	if !canonical {
		tc.Charge(tc.Model().MatMin(cr, cc)) // de-canonicalizing transpose pass
	}
	left, right := base, diag
	if !canonical {
		left, right = diag, base
	}
	return foldProduct(base, left, right, tc.Workers(), matrix.MinPlusIntoPar)
}

// foldProduct returns min(base, left (x) right) in an arena block, folded
// by the given fused kernel. With a phantom operand the result is a
// phantom — base itself when it is one — and the kernel still runs: its
// shape validation fires before its phantom no-op, so phantom and dense
// runs reject identical shapes from one source of truth.
func foldProduct(base, left, right *matrix.Block, workers int, fold func(a, b, dst *matrix.Block, workers int) error) (*matrix.Block, error) {
	if base.Phantom() || left.Phantom() || right.Phantom() {
		dst := base
		if !dst.Phantom() { // a dense base meeting a phantom operand
			dst = matrix.NewPhantom(base.R, base.C)
		}
		if err := fold(left, right, dst, workers); err != nil {
			return nil, err
		}
		return dst, nil
	}
	dst := matrix.Get(base.R, base.C)
	if err := dst.CopyFrom(base); err != nil {
		matrix.Put(dst)
		return nil, err
	}
	if err := fold(left, right, dst, workers); err != nil {
		matrix.Put(dst)
		return nil, err
	}
	return dst, nil
}

// UpdateOff applies the Phase-3 update to an off-column block (K, L):
// A_KL = min(A_KL, A_Ki (x) A_iL), where left is panel K in canonical
// orientation, A[K, i], and right is panel L in the other one, A[i, L]
// (Table 1: ListUnpack's two-operand branch followed by MatMin). Both
// arrive ready-made — the task that updated a panel made its second
// orientation — and the product folds into an arena copy of base. A
// diagonal target (K, K) multiplies one panel by its own transpose into a
// symmetric block, so only the tiles on or above its diagonal are computed
// and the rest mirrored (matrix.MinPlusSymIntoPar: the same values). The
// virtual clock is charged the paper's executor's full product and the
// transpose pass it makes, either way.
func UpdateOff(tc *rdd.TaskContext, k graph.BlockKey, base *matrix.Block, left, right *matrix.Block) (*matrix.Block, error) {
	tc.Charge(tc.Model().MatMin(right.C, right.R)) // transpose pass
	tc.Charge(tc.Model().MinPlusMul(left.R, left.C, right.C))
	tc.Charge(tc.Model().MatMin(base.R, base.C))
	fold := matrix.MinPlusIntoPar
	if k.I == k.J {
		fold = matrix.MinPlusSymIntoPar
	}
	return foldProduct(base, left, right, tc.Workers(), fold)
}

// CopyCol distributes the updated panel blocks of column-block i to every
// off-column block that needs them in Phase 3 (Table 1: CopyCol). From the
// panel covering block-row R it yields one copy per stored off-column key
// containing R, each carrying both orientations, A[R, i] and A[i, R] — the
// stored block and its transpose, made here once; the off-diagonal targets
// therefore receive two copies (rows K and L) and diagonal targets one,
// matching the (q-1)^2 total copy volume of the paper's upper-triangular
// layout. Canonicalizing a stored (i, J) block is charged as the transpose
// pass it is in the paper's code. Only the keys differ: the copies share
// one read-only value.
func CopyCol(q, i int) func(tc *rdd.TaskContext, p rdd.Pair) ([]rdd.Pair, error) {
	return func(tc *rdd.TaskContext, p rdd.Pair) ([]rdd.Pair, error) {
		k := p.Key
		tb := p.Value.(*TaggedBlock)
		twin, err := withTranspose(tb.B)
		if err != nil {
			return nil, err
		}
		row, canon, other := k.I, tb.B, twin
		if !storedCanonically(k, i) { // stored (i, J): the transpose of panel J
			tc.Charge(tc.Model().MatMin(tb.B.R, tb.B.C)) // transpose is an O(rc) pass
			row, canon, other = k.J, twin, tb.B
		}
		panel := &TaggedBlock{Tag: TagPanelCopy, Row: row, B: canon, T: other}
		out := make([]rdd.Pair, 0, q-1)
		for l := 0; l < q; l++ {
			if l == i {
				continue
			}
			key := graph.BlockKey{I: row, J: l}
			if l < row {
				key = graph.BlockKey{I: l, J: row}
			}
			out = append(out, rdd.Pair{Key: key, Value: panel})
		}
		return out, nil
	}
}

// unpack is Table 1's ListUnpack over the records grouped at one key: in
// one scan it returns the group's one base block and the number of copies
// beside it, and hands every copy, in arrival order, to each.
func unpack(group []rdd.Pair, each func(c *TaggedBlock) error) (base *TaggedBlock, copies int, err error) {
	for _, rec := range group {
		tb := rec.Value.(*TaggedBlock)
		if tb.Tag != TagBase {
			copies++
			if err := each(tb); err != nil {
				return nil, 0, err
			}
			continue
		}
		if base != nil {
			return nil, 0, fmt.Errorf("core: two base blocks at key %v", rec.Key)
		}
		base = tb
	}
	if base == nil {
		return nil, 0, fmt.Errorf("core: no base block among the %d records at key %v", len(group), group[0].Key)
	}
	return base, copies, nil
}

// UnpackPhase2 is ListUnpack+MatMin for Phase 2, the GroupByKey function
// of the panel step: the group holds a stored panel block and a diagonal
// copy.
func UnpackPhase2(i int) func(tc *rdd.TaskContext, group []rdd.Pair) (rdd.Pair, error) {
	return func(tc *rdd.TaskContext, group []rdd.Pair) (rdd.Pair, error) {
		k := group[0].Key
		var diag *TaggedBlock
		base, copies, err := unpack(group, func(c *TaggedBlock) error { diag = c; return nil })
		if err != nil {
			return rdd.Pair{}, err
		}
		if copies == 0 {
			// No diagonal copy reached this key (q == 1 edge case).
			return rdd.Pair{Key: k, Value: base}, nil
		}
		if copies != 1 || diag.Tag != TagDiagCopy {
			return rdd.Pair{}, fmt.Errorf("core: phase-2 key %v got %d unexpected copies", k, copies)
		}
		upd, err := UpdatePanel(tc, k, base.B, diag.B, i)
		if err != nil {
			return rdd.Pair{}, err
		}
		return rdd.Pair{Key: k, Value: &TaggedBlock{Tag: TagBase, B: upd}}, nil
	}
}

// UnpackPhase3 is ListUnpack+MatMin for Phase 3, the GroupByKey function
// of the off-column step: the group holds an off-column base block plus
// the panel copies for its row and column.
func UnpackPhase3() func(tc *rdd.TaskContext, group []rdd.Pair) (rdd.Pair, error) {
	return func(tc *rdd.TaskContext, group []rdd.Pair) (rdd.Pair, error) {
		k := group[0].Key
		var panelK, panelL *TaggedBlock
		base, copies, err := unpack(group, func(c *TaggedBlock) error {
			if c.Tag != TagPanelCopy {
				return fmt.Errorf("core: phase-3 key %v got tag %d", k, c.Tag)
			}
			switch c.Row {
			case k.I:
				panelK = c
			case k.J:
				panelL = c
			default:
				return fmt.Errorf("core: stray panel row %d at key %v", c.Row, k)
			}
			return nil
		})
		if err != nil {
			return rdd.Pair{}, err
		}
		if k.I == k.J && panelK != nil && panelL == nil {
			panelL = panelK // diagonal target uses its single panel twice
		}
		if panelK == nil || panelL == nil {
			return rdd.Pair{}, fmt.Errorf("core: phase-3 key %v missing panels (%d copies)", k, copies)
		}
		if panelL.T == nil {
			return rdd.Pair{}, fmt.Errorf("core: phase-3 key %v got panel %d without its A[i,%d] orientation", k, panelL.Row, panelL.Row)
		}
		upd, err := UpdateOff(tc, k, base.B, panelK.B, panelL.T)
		if err != nil {
			return rdd.Pair{}, err
		}
		return rdd.Pair{Key: k, Value: &TaggedBlock{Tag: TagBase, B: upd}}, nil
	}
}

// MatMinValues is Table 1's MatMin as a ReduceByKey operand over tagged
// blocks.
func MatMinValues(tc *rdd.TaskContext, a, b rdd.Sized) (rdd.Sized, error) {
	ta, tb := a.(*TaggedBlock), b.(*TaggedBlock)
	tc.Charge(tc.Model().MatMin(ta.B.R, ta.B.C))
	m, err := matrix.MatMin(ta.B, tb.B)
	if err != nil {
		return nil, err
	}
	return &TaggedBlock{Tag: TagBase, B: m}, nil
}

// ExtractColumn is Table 1's ExtractCol: from a stored block of
// column-block K it extracts the slice of global column k owned by the
// block's other index, returned as an (rows x 1) block keyed (owning
// block-row, K). Exploits symmetry for stored (K, J) blocks, whose row kloc
// is column k of A restricted to block-row J.
func ExtractColumn(K, kloc int) func(tc *rdd.TaskContext, p rdd.Pair) (rdd.Pair, error) {
	return func(tc *rdd.TaskContext, p rdd.Pair) (rdd.Pair, error) {
		key := p.Key
		b := p.Value.(*TaggedBlock).B
		var owner int
		var vec *matrix.Block
		switch {
		case key.J == K: // stored (I, K): take column kloc
			owner = key.I
			if b.Phantom() {
				vec = matrix.NewPhantom(b.R, 1)
			} else {
				vec = &matrix.Block{R: b.R, C: 1, Data: b.Col(kloc)}
			}
			tc.Charge(tc.Model().ExtractCol(b.R))
		case key.I == K: // stored (K, J): take row kloc (transposed view)
			owner = key.J
			if b.Phantom() {
				vec = matrix.NewPhantom(b.C, 1)
			} else {
				row := make([]float64, b.C)
				copy(row, b.Row(kloc))
				vec = &matrix.Block{R: b.C, C: 1, Data: row}
			}
			tc.Charge(tc.Model().ExtractCol(b.C))
		default:
			return rdd.Pair{}, fmt.Errorf("core: ExtractColumn(%d) applied to block %v", K, key)
		}
		return rdd.Pair{Key: graph.BlockKey{I: owner, J: K}, Value: vec}, nil
	}
}
