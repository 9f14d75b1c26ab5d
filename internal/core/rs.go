package core

import (
	"fmt"

	"apspark/internal/graph"
	"apspark/internal/matrix"
	"apspark/internal/rdd"
)

// RepeatedSquaring is the paper's Algorithm 1 (§4.2): APSP as min-plus
// repeated squaring, with the matrix-matrix product rewritten as a series
// of matrix-vector (column-block) products to sidestep the all-to-all
// shuffle of cartesian. Each column of the squared matrix is produced by
// staging the current column's blocks in shared storage (driver collect +
// write), mapping MatProd over every stored block of A, and folding with
// reduceByKey(MatMin). The staging makes the method impure.
type RepeatedSquaring struct{}

// Name implements Solver.
func (RepeatedSquaring) Name() string { return "Repeated Squaring" }

// Pure implements Solver: column staging through shared storage is a side
// effect (paper §4.2).
func (RepeatedSquaring) Pure() bool { return false }

// Units implements Solver: ceil(log2 n) squarings of q column products
// each (Table 2 reports iterations = log2(n) x q).
func (RepeatedSquaring) Units(dec graph.Decomposition) int {
	return log2Ceil(dec.N) * dec.Q
}

func rsColKey(iter, j, k int) string { return fmt.Sprintf("rs/%d/col/%d/%d", iter, j, k) }

// step implements Solver: column j of squaring it, for unit it*q + j. The
// columns of a squaring accumulate in the closure; the unit that produces
// the last one also unions them into the squared matrix.
func (RepeatedSquaring) step(rc *rdd.Context, in Input, part rdd.Partitioner) step {
	q := in.Dec.Q
	var cols []*rdd.RDD
	return func(u int, a *rdd.RDD) (*rdd.RDD, error) {
		it, j := u/q, u%q
		rc.Store.NewEpoch()
		// Stage column-block j: collect its stored blocks on the
		// driver and write them, canonically oriented as A[K, j], to
		// shared storage (Algorithm 1 lines 3-4).
		colPairs, err := a.Filter("col", InColumn(j)).Collect()
		if err != nil {
			return nil, err
		}
		for _, p := range colPairs {
			k := p.Key
			b := p.Value.(*TaggedBlock).B
			row, canon := k.I, b
			if k.I == j && k.J != j {
				row, canon = k.J, b.Transpose()
			}
			rc.Store.Put(rsColKey(it, j, row), canon, canon.SizeBytes())
		}

		// T[j] = A.map(MatProd).reduceByKey(MatMin) (line 5): every
		// stored block contributes min-plus products against the
		// staged column blocks; symmetry makes block (I, K) feed both
		// output rows I and K.
		products := a.FlatMap("matProd", func(tc *rdd.TaskContext, p rdd.Pair) ([]rdd.Pair, error) {
			k := p.Key
			tb := p.Value.(*TaggedBlock)
			var out []rdd.Pair
			// Only output rows I <= j are produced here: rows below
			// the diagonal of column j live in later columns' T (the
			// upper-triangular dedup rule of §4). Products land in
			// arena blocks via the fused kernel; the transposed left
			// operand is pooled scratch.
			emit := func(outRow int, left *matrix.Block, colRow int) error {
				if outRow > j {
					return nil
				}
				cv, err := tc.SharedGet(rsColKey(it, j, colRow))
				if err != nil {
					return err
				}
				col := cv.(*matrix.Block)
				tc.Charge(tc.Model().MinPlusMul(left.R, left.C, col.C))
				// One kernel call serves both modes: with any phantom
				// operand MinPlusMulIntoPar validates shapes and then
				// no-ops, so phantom runs reject exactly the shapes
				// dense runs do.
				var prod *matrix.Block
				if left.Phantom() || col.Phantom() {
					prod = matrix.NewPhantom(left.R, col.C)
				} else {
					prod = matrix.Get(left.R, col.C)
				}
				if err := matrix.MinPlusMulIntoPar(left, col, prod, tc.Workers()); err != nil {
					return err
				}
				out = append(out, rdd.Pair{
					Key:   graph.BlockKey{I: outRow, J: j},
					Value: &TaggedBlock{Tag: TagBase, B: prod},
				})
				return nil
			}
			// C[I, j] gets A[I, K] (x) col[K].
			if err := emit(k.I, tb.B, k.J); err != nil {
				return nil, err
			}
			if k.I != k.J && k.J <= j {
				// C[K, j] gets A[K, I] (x) col[I] = A[I, K]^T (x) col[I].
				tc.Charge(tc.Model().MatMin(tb.B.R, tb.B.C)) // transpose pass
				if tb.B.Phantom() {
					if err := emit(k.J, tb.B.Transpose(), k.I); err != nil {
						return nil, err
					}
				} else {
					left := matrix.Get(tb.B.C, tb.B.R)
					if err := tb.B.TransposeInto(left); err != nil {
						return nil, err
					}
					err := emit(k.J, left, k.I)
					matrix.Put(left)
					if err != nil {
						return nil, err
					}
				}
			}
			return out, nil
		})
		tj := products.
			ReduceByKey(part, MatMinValues).
			Persist()
		if err := tj.Materialize(); err != nil {
			return nil, err
		}
		cols = append(cols, tj)
		if j < q-1 {
			return a, nil
		}
		// A = sc.union(T) (line 6), repartitioned to tame the q-fold
		// partition blowup unions would otherwise accumulate (§5.2).
		a = rc.Union(cols...).PartitionBy(part).Persist()
		cols = nil
		return a, a.Checkpoint()
	}
}

// project implements projector. Column costs have a fixed part (stage
// scheduling, column staging) and a part that grows linearly with the
// column index (the upper-triangular dedup assigns column j the output rows
// 0..j), so the projection fits t_j = a + c*(j+1) to the measured columns by
// least squares and sums the model over all outer x q columns. With a single
// measured column it falls back to a flat per-unit scaling.
func (RepeatedSquaring) project(durations []float64, virtual float64, dec graph.Decomposition) float64 {
	outer, q := log2Ceil(dec.N), dec.Q
	m := len(durations)
	totalCols := float64(outer) * float64(q)
	if m < 2 {
		return virtual / float64(max(m, 1)) * totalCols
	}
	var sx, sy, sxx, sxy float64
	for j, t := range durations {
		x := float64(j + 1)
		sx += x
		sy += t
		sxx += x * x
		sxy += x * t
	}
	n := float64(m)
	den := n*sxx - sx*sx
	if den == 0 {
		return virtual / n * totalCols
	}
	c := (n*sxy - sx*sy) / den
	a := (sy - c*sx) / n
	if c < 0 { // noise guard: fall back to the flat model
		return virtual / n * totalCols
	}
	qf := float64(q)
	perSquaring := qf*a + c*qf*(qf+1)/2
	return float64(outer) * perSquaring
}
