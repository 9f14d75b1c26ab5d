package core

import (
	"math/rand"
	"testing"

	"apspark/internal/graph"
	"apspark/internal/matrix"
	"apspark/internal/rdd"
)

func taskCtx(t *testing.T) *rdd.TaskContext {
	t.Helper()
	ctx := testContext(t)
	// Obtain a TaskContext by running a trivial one-task stage.
	var tc *rdd.TaskContext
	r := ctx.Parallelize("probe", []rdd.Pair{{Key: key(0, 0)}}, rdd.Modulo{Parts: 1}).
		Map("grab", func(c *rdd.TaskContext, p rdd.Pair) (rdd.Pair, error) {
			tc = c
			return p, nil
		})
	if _, err := r.Collect(); err != nil {
		t.Fatal(err)
	}
	return tc
}

func key(i, j int) graph.BlockKey { return graph.BlockKey{I: i, J: j} }

func tb(b *matrix.Block) *TaggedBlock { return &TaggedBlock{Tag: TagBase, B: b} }

func TestPredicates(t *testing.T) {
	p := rdd.Pair{Key: key(1, 3)}
	if !InColumn(1)(p) || !InColumn(3)(p) || InColumn(2)(p) {
		t.Fatal("InColumn wrong for (1,3)")
	}
	if !NotInColumn(2)(p) || NotInColumn(1)(p) {
		t.Fatal("NotInColumn wrong")
	}
	d := rdd.Pair{Key: key(2, 2)}
	if !OnDiagonal(2)(d) || OnDiagonal(1)(d) || OnDiagonal(2)(p) {
		t.Fatal("OnDiagonal wrong")
	}
	if !InPanel(1)(p) || !InPanel(3)(p) || InPanel(2)(p) || InPanel(2)(d) || !InPanel(0)(rdd.Pair{Key: key(0, 2)}) {
		t.Fatal("InPanel wrong")
	}
}

func TestFloydWarshallBlockChargesAndSolves(t *testing.T) {
	tc := taskCtx(t)
	blk, _ := matrix.FromRows([][]float64{
		{0, 1, 9},
		{1, 0, 1},
		{9, 1, 0},
	})
	out, err := FloydWarshallBlock(tc, rdd.Pair{Key: key(0, 0), Value: tb(blk)})
	if err != nil {
		t.Fatal(err)
	}
	got := out.Value.(*TaggedBlock).B
	if got.At(0, 2) != 2 {
		t.Fatalf("FW block missed relaxation: %v", got.At(0, 2))
	}
	if blk.At(0, 2) != 9 {
		t.Fatal("input block mutated (should be cloned)")
	}
}

func TestCopyDiagTargets(t *testing.T) {
	tc := taskCtx(t)
	q := 4
	out, err := CopyDiag(q)(tc, rdd.Pair{Key: key(1, 1), Value: tb(matrix.New(2, 2))})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != q-1 {
		t.Fatalf("CopyDiag produced %d copies, want %d", len(out), q-1)
	}
	want := map[graph.BlockKey]bool{key(0, 1): true, key(1, 2): true, key(1, 3): true}
	for _, p := range out {
		k := p.Key
		if !want[k] {
			t.Fatalf("unexpected copy target %v", k)
		}
		if p.Value.(*TaggedBlock).Tag != TagDiagCopy {
			t.Fatal("copy not tagged TagDiagCopy")
		}
		delete(want, k)
	}
	if len(want) != 0 {
		t.Fatalf("missing targets %v", want)
	}
}

func TestCopyColTargetsAndOrientation(t *testing.T) {
	tc := taskCtx(t)
	q, i := 4, 1
	// Stored panel (0,1): canonical row-block 0 (A[0,1] as stored).
	src, _ := matrix.FromRows([][]float64{{1, 2}, {3, 4}})
	out, err := CopyCol(q, i)(tc, rdd.Pair{Key: key(0, 1), Value: tb(src)})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != q-1 {
		t.Fatalf("CopyCol produced %d copies, want %d", len(out), q-1)
	}
	targets := map[graph.BlockKey]bool{}
	for _, p := range out {
		c := p.Value.(*TaggedBlock)
		if c.Tag != TagPanelCopy || c.Row != 0 {
			t.Fatalf("bad copy %+v", c)
		}
		if !c.B.Equal(src) || !c.T.Equal(src.Transpose()) {
			t.Fatal("panel (K,i) should stay canonical, with its transpose alongside")
		}
		targets[p.Key] = true
	}
	for _, want := range []graph.BlockKey{key(0, 0), key(0, 2), key(0, 3)} {
		if !targets[want] {
			t.Fatalf("missing target %v (got %v)", want, targets)
		}
	}

	// Stored panel (1,2) with i=1: canonical row-block 2 = transpose.
	out, err = CopyCol(q, i)(tc, rdd.Pair{Key: key(1, 2), Value: tb(src)})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range out {
		c := p.Value.(*TaggedBlock)
		if c.Row != 2 {
			t.Fatalf("row = %d, want 2", c.Row)
		}
		if !c.B.Equal(src.Transpose()) || c.T != src {
			t.Fatal("panel (i,J) should be transposed to canonical form, the stored block alongside")
		}
	}
}

func TestUpdatePanelBothOrientations(t *testing.T) {
	tc := taskCtx(t)
	diag, _ := matrix.FromRows([][]float64{{0, 1}, {1, 0}})
	// Canonical orientation (K,i), K < i: panel = min(panel (x) diag, panel).
	panel, _ := matrix.FromRows([][]float64{{5, 3}, {2, 9}})
	got, err := UpdatePanel(tc, key(0, 1), panel, diag, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Row 0: min((min(5+0,3+1)), 5)=4 ; col1: min(5+1, 3+0, 3)=3.
	want, _ := matrix.FromRows([][]float64{{4, 3}, {2, 3}})
	if !got.Equal(want) {
		t.Fatalf("panel update =\n%v want\n%v", got, want)
	}
	// Stored (i,J) orientation must round-trip through the transpose.
	gotT, err := UpdatePanel(tc, key(1, 2), panel.Transpose(), diag, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !gotT.Equal(want.Transpose()) {
		t.Fatalf("transposed panel update wrong:\n%v", gotT)
	}
}

func TestUpdateOff(t *testing.T) {
	tc := taskCtx(t)
	base, _ := matrix.FromRows([][]float64{{10}})
	left, _ := matrix.FromRows([][]float64{{2}})  // A[K,i]
	right, _ := matrix.FromRows([][]float64{{3}}) // A[i,L]
	got, err := UpdateOff(tc, key(0, 2), base, left, right)
	if err != nil {
		t.Fatal(err)
	}
	if got.At(0, 0) != 5 {
		t.Fatalf("off update = %v, want 5", got.At(0, 0))
	}
	// A 2x1 panel K against a 1x3 panel L: A[K,i] (x) A[i,L] is 2x3.
	base, _ = matrix.FromRows([][]float64{{9, 9, 9}, {9, 9, 9}})
	left, _ = matrix.FromRows([][]float64{{1}, {2}})
	right, _ = matrix.FromRows([][]float64{{1, 5, 8}})
	got, err = UpdateOff(tc, key(0, 2), base, left, right)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := matrix.FromRows([][]float64{{2, 6, 9}, {3, 7, 9}})
	if !got.Equal(want) {
		t.Fatalf("ragged off update =\n%v want\n%v", got, want)
	}
	if _, err := UpdateOff(tc, key(0, 2), base, right, left); err == nil {
		t.Fatal("operands in the wrong orientation accepted")
	}
}

// group is the records GroupByKey hands an unpack function at key k.
func group(k graph.BlockKey, vals ...*TaggedBlock) []rdd.Pair {
	g := make([]rdd.Pair, len(vals))
	for i, v := range vals {
		g[i] = rdd.Pair{Key: k, Value: v}
	}
	return g
}

// TestUnpackGroupErrors checks the base-block rule both unpack functions
// share: a group holds exactly one base block.
func TestUnpackGroupErrors(t *testing.T) {
	tc := taskCtx(t)
	base := tb(matrix.New(1, 1))
	for name, fn := range map[string]func(*rdd.TaskContext, []rdd.Pair) (rdd.Pair, error){
		"phase 2": UnpackPhase2(1), "phase 3": UnpackPhase3(),
	} {
		if _, err := fn(tc, group(key(0, 2), base, base)); err == nil {
			t.Fatalf("%s: two base blocks accepted", name)
		}
		if _, err := fn(tc, group(key(0, 2), &TaggedBlock{Tag: TagDiagCopy})); err == nil {
			t.Fatalf("%s: missing base accepted", name)
		}
	}
}

func TestUnpackPhase2Errors(t *testing.T) {
	tc := taskCtx(t)
	fn := UnpackPhase2(1)
	// Only a base block: passthrough (q == 1 case).
	out, err := fn(tc, group(key(0, 1), tb(matrix.New(1, 1))))
	if err != nil {
		t.Fatal(err)
	}
	if out.Value.(*TaggedBlock).Tag != TagBase {
		t.Fatal("passthrough lost base")
	}
	// Wrong copy type.
	_, err = fn(tc, group(key(0, 1), tb(matrix.New(1, 1)), &TaggedBlock{Tag: TagPanelCopy, B: matrix.New(1, 1)}))
	if err == nil {
		t.Fatal("panel copy accepted in phase 2")
	}
	// A second diagonal copy, before or after the base block.
	diag := &TaggedBlock{Tag: TagDiagCopy, B: matrix.New(1, 1)}
	if _, err := fn(tc, group(key(0, 1), diag, tb(matrix.New(1, 1)), diag)); err == nil {
		t.Fatal("two diagonal copies accepted in phase 2")
	}
	// The base block may arrive after its copy.
	out, err = fn(tc, group(key(0, 1), diag, tb(matrix.New(1, 1))))
	if err != nil {
		t.Fatal(err)
	}
	if out.Key != key(0, 1) || out.Value.(*TaggedBlock).Tag != TagBase {
		t.Fatalf("phase-2 update = %v %+v", out.Key, out.Value)
	}
}

func TestUnpackPhase3DiagonalUsesPanelTwice(t *testing.T) {
	tc := taskCtx(t)
	fn := UnpackPhase3()
	base, _ := matrix.FromRows([][]float64{{10}})
	panel, _ := matrix.FromRows([][]float64{{2}}) // A[K,i] = 2
	out, err := fn(tc, group(key(3, 3),
		tb(base), &TaggedBlock{Tag: TagPanelCopy, Row: 3, B: panel, T: panel.Transpose()},
	))
	if err != nil {
		t.Fatal(err)
	}
	// A[3,3] = min(10, A[3,i] + A[i,3]) = min(10, 2 + 2) = 4.
	if got := out.Value.(*TaggedBlock).B.At(0, 0); got != 4 {
		t.Fatalf("diagonal phase-3 = %v, want 4", got)
	}
}

func TestUnpackPhase3Errors(t *testing.T) {
	tc := taskCtx(t)
	fn := UnpackPhase3()
	base := tb(matrix.New(1, 1))
	if _, err := fn(tc, group(key(0, 2), base)); err == nil {
		t.Fatal("missing panels accepted")
	}
	if _, err := fn(tc, group(key(0, 2),
		base, &TaggedBlock{Tag: TagPanelCopy, Row: 0, B: matrix.New(1, 1), T: matrix.New(1, 1)},
	)); err == nil {
		t.Fatal("missing panel L accepted")
	}
	if _, err := fn(tc, group(key(0, 2),
		base, &TaggedBlock{Tag: TagPanelCopy, Row: 7, B: matrix.New(1, 1)},
	)); err == nil {
		t.Fatal("stray panel row accepted")
	}
	if _, err := fn(tc, group(key(0, 2),
		base, &TaggedBlock{Tag: TagDiagCopy, B: matrix.New(1, 1)},
	)); err == nil {
		t.Fatal("diag copy accepted in phase 3")
	}
	if _, err := fn(tc, group(key(0, 2),
		base, &TaggedBlock{Tag: TagPanelCopy, Row: 0, B: matrix.New(1, 1)}, &TaggedBlock{Tag: TagPanelCopy, Row: 2, B: matrix.New(1, 1)},
	)); err == nil {
		t.Fatal("panel copy without its second orientation accepted")
	}
}

func TestExtractColumnOrientations(t *testing.T) {
	tc := taskCtx(t)
	// Stored block (0, 2) in a q=3 grid; extracting from column-block 2.
	blk, _ := matrix.FromRows([][]float64{{1, 2}, {3, 4}})
	out, err := ExtractColumn(2, 1)(tc, rdd.Pair{Key: key(0, 2), Value: tb(blk)})
	if err != nil {
		t.Fatal(err)
	}
	if out.Key != key(0, 2) {
		t.Fatalf("key = %v, want (0, 2): owner 0, column-block 2", out.Key)
	}
	vec := out.Value.(*matrix.Block)
	if vec.R != 2 || vec.C != 1 || vec.At(0, 0) != 2 || vec.At(1, 0) != 4 {
		t.Fatalf("column vector = %v", vec)
	}

	// Stored block (2, 3): column-block 2 owns rows of block 3 via the
	// transposed view (row kloc).
	out, err = ExtractColumn(2, 0)(tc, rdd.Pair{Key: key(2, 3), Value: tb(blk)})
	if err != nil {
		t.Fatal(err)
	}
	if out.Key != key(3, 2) {
		t.Fatalf("key = %v, want (3, 2): owner 3, column-block 2", out.Key)
	}
	vec = out.Value.(*matrix.Block)
	if vec.At(0, 0) != 1 || vec.At(1, 0) != 2 {
		t.Fatalf("row-extracted vector = %v", vec)
	}

	if _, err := ExtractColumn(5, 0)(tc, rdd.Pair{Key: key(0, 2), Value: tb(blk)}); err == nil {
		t.Fatal("block outside column accepted")
	}
}

func TestExtractColumnPhantom(t *testing.T) {
	tc := taskCtx(t)
	out, err := ExtractColumn(1, 0)(tc, rdd.Pair{Key: key(0, 1), Value: tb(matrix.NewPhantom(3, 2))})
	if err != nil {
		t.Fatal(err)
	}
	vec := out.Value.(*matrix.Block)
	if !vec.Phantom() || vec.R != 3 || vec.C != 1 {
		t.Fatalf("phantom column = %v", vec)
	}
}

func TestMatMinValues(t *testing.T) {
	tc := taskCtx(t)
	a, _ := matrix.FromRows([][]float64{{5}})
	b, _ := matrix.FromRows([][]float64{{3}})
	out, err := MatMinValues(tc, tb(a), tb(b))
	if err != nil {
		t.Fatal(err)
	}
	if out.(*TaggedBlock).B.At(0, 0) != 3 {
		t.Fatal("MatMinValues wrong")
	}
}

// --- the parent commit's transposing paths, kept verbatim as oracles ---

// oracleUpdatePanel is UpdatePanel as it was before panels were updated in
// their stored orientation: canonicalizing transpose, fused min-plus fold,
// de-canonicalizing transpose.
func oracleUpdatePanel(tc *rdd.TaskContext, k graph.BlockKey, base *matrix.Block, diag *matrix.Block, i int) (*matrix.Block, error) {
	canonical := k.J == i && k.I != i
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
	if base.Phantom() || diag.Phantom() {
		if err := matrix.MinPlusInto(matrix.NewPhantom(cr, cc), diag, matrix.NewPhantom(cr, cc)); err != nil {
			return nil, err
		}
		return matrix.NewPhantom(base.R, base.C), nil
	}
	canon := base
	var scratch *matrix.Block
	if !canonical {
		scratch = matrix.Get(base.C, base.R)
		if err := base.TransposeInto(scratch); err != nil {
			return nil, err
		}
		canon = scratch
	}
	dst := matrix.Get(canon.R, canon.C)
	if err := dst.CopyFrom(canon); err != nil {
		return nil, err
	}
	err := matrix.MinPlusIntoPar(canon, diag, dst, tc.Workers())
	if scratch != nil {
		matrix.Put(scratch)
	}
	if err != nil {
		matrix.Put(dst)
		return nil, err
	}
	if canonical {
		return dst, nil
	}
	out := matrix.Get(dst.C, dst.R)
	if err := dst.TransposeInto(out); err != nil {
		return nil, err
	}
	matrix.Put(dst)
	return out, nil
}

// oracleUpdateOff is UpdateOff as it was when both panels arrived in
// canonical orientation, A[K,i] and A[L,i], and every target transposed the
// second.
func oracleUpdateOff(tc *rdd.TaskContext, base *matrix.Block, panelK, panelL *matrix.Block) (*matrix.Block, error) {
	tc.Charge(tc.Model().MatMin(panelL.R, panelL.C)) // transpose pass
	tc.Charge(tc.Model().MinPlusMul(panelK.R, panelK.C, panelL.R))
	tc.Charge(tc.Model().MatMin(base.R, base.C))
	if base.Phantom() || panelK.Phantom() || panelL.Phantom() {
		if err := matrix.MinPlusInto(panelK, matrix.NewPhantom(panelL.C, panelL.R), matrix.NewPhantom(base.R, base.C)); err != nil {
			return nil, err
		}
		return matrix.NewPhantom(base.R, base.C), nil
	}
	right := matrix.Get(panelL.C, panelL.R)
	if err := panelL.TransposeInto(right); err != nil {
		return nil, err
	}
	dst := matrix.Get(base.R, base.C)
	if err := dst.CopyFrom(base); err != nil {
		return nil, err
	}
	err := matrix.MinPlusIntoPar(panelK, right, dst, tc.Workers())
	matrix.Put(right)
	if err != nil {
		matrix.Put(dst)
		return nil, err
	}
	return dst, nil
}

// oracleBlockedSolve is the 3-phase blocked Floyd-Warshall of Blocked-CB
// and Blocked-IM on the driver, through the oracle building blocks: every
// phase reads the previous generation, exactly as the RDD programs do, so
// its blocks are what the parent commit's solvers return, bit for bit.
func oracleBlockedSolve(t *testing.T, tc *rdd.TaskContext, in Input) map[graph.BlockKey]*matrix.Block {
	t.Helper()
	q := in.Dec.Q
	cur := in.Blocks
	for i := 0; i < q; i++ {
		next := make(map[graph.BlockKey]*matrix.Block, len(cur))
		diag := cur[key(i, i)].Clone()
		if err := matrix.FloydWarshall(diag); err != nil {
			t.Fatal(err)
		}
		next[key(i, i)] = diag
		canon := make([]*matrix.Block, q) // canon[R] = A[R, i]
		for k, b := range cur {
			if (k.I == i) == (k.J == i) {
				continue
			}
			upd, err := oracleUpdatePanel(tc, k, b, diag, i)
			if err != nil {
				t.Fatal(err)
			}
			next[k] = upd
			if k.J == i {
				canon[k.I] = upd
			} else {
				canon[k.J] = upd.Transpose()
			}
		}
		for k, b := range cur {
			if k.I == i || k.J == i {
				continue
			}
			upd, err := oracleUpdateOff(tc, b, canon[k.I], canon[k.J])
			if err != nil {
				t.Fatal(err)
			}
			next[k] = upd
		}
		cur = next
	}
	return cur
}

// randomSymmetric fills a b x b block with a symmetric, zero-diagonal
// matrix of which roughly infFrac of the entries are +Inf.
func randomSymmetric(rng *rand.Rand, b int, infFrac float64) *matrix.Block {
	d := matrix.New(b, b)
	for r := 0; r < b; r++ {
		d.Set(r, r, 0)
		for c := r + 1; c < b; c++ {
			if rng.Float64() >= infFrac {
				v := rng.Float64() * 10
				d.Set(r, c, v)
				d.Set(c, r, v)
			}
		}
	}
	return d
}

func randomBlock(rng *rand.Rand, r, c int, infFrac float64) *matrix.Block {
	b := matrix.New(r, c)
	for i := range b.Data {
		if rng.Float64() >= infFrac {
			b.Data[i] = rng.Float64() * 10
		}
	}
	return b
}

// TestUpdatePathsMatchTransposingOracle holds the stored-orientation panel
// update and the two-orientation off update to the parent commit's
// transpose-multiply-transpose results, exactly (Equal, not AllClose): the
// sums are the same sums and min is exact.
func TestUpdatePathsMatchTransposingOracle(t *testing.T) {
	tc := taskCtx(t)
	rng := rand.New(rand.NewSource(23))
	for _, shape := range []struct {
		b, other int // diagonal block edge; the panel's other edge
		inf      float64
	}{
		{64, 64, 0}, {64, 64, 0.9}, {96, 96, 0.5}, {70, 33, 0.3}, {33, 70, 0.97}, {1, 5, 0}, {130, 64, 0.6},
	} {
		diag := randomSymmetric(rng, shape.b, shape.inf)
		if err := matrix.FloydWarshall(diag); err != nil {
			t.Fatal(err)
		}
		const i = 3
		// Stored (K, i), K < i: k.J == i. Stored (i, J), J > i: k.I == i.
		for _, k := range []graph.BlockKey{key(1, i), key(i, 5)} {
			base := randomBlock(rng, shape.other, shape.b, shape.inf)
			if k.I == i {
				base = base.Transpose()
			}
			got, err := UpdatePanel(tc, k, base, diag, i)
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracleUpdatePanel(tc, k, base, diag, i)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("UpdatePanel %v b=%d other=%d inf=%.2f differs from the transposing oracle", k, shape.b, shape.other, shape.inf)
			}
		}
		// Off update of a (K, L) target, K x L ragged both ways, and of a
		// diagonal target that uses one panel twice.
		panelK := randomBlock(rng, shape.other, shape.b, shape.inf) // A[K,i]
		panelL := randomBlock(rng, shape.b+1, shape.b, shape.inf)   // A[L,i]
		for _, c := range []struct {
			k            graph.BlockKey
			base, pk, pl *matrix.Block
		}{
			{key(1, 5), randomBlock(rng, panelK.R, panelL.R, shape.inf), panelK, panelL},
			{key(5, 5), randomSymmetric(rng, panelK.R, shape.inf), panelK, panelK}, // mirrored
		} {
			got, err := UpdateOff(tc, c.k, c.base, c.pk, c.pl.Transpose())
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracleUpdateOff(tc, c.base, c.pk, c.pl)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("UpdateOff b=%d other=%d inf=%.2f differs from the transposing oracle", shape.b, shape.other, shape.inf)
			}
		}
	}
}
