// Package costmodel turns operation shapes into seconds. It is the single
// source of truth for virtual time in this repository: the RDD engine and
// the MPI simulator charge every kernel invocation, shuffle, broadcast and
// storage access through one of these models, so paper-scale experiments
// (n = 262,144 on 1,024 cores) can be replayed deterministically on a
// laptop while preserving the shape of the paper's tables and figures.
//
// The default kernel constants are calibrated to the paper's published
// numbers: sustained ~0.76 Gops for the sequential Floyd-Warshall kernel
// (T1 = 0.022 s at n = 256, §5.4), a cache knee near b ≈ 1810 (§5.2,
// Figure 2), and slightly lower throughput for the min-plus product. The
// Calibrate function re-derives the rates from live measurements of the Go
// kernels instead, for users who want wall-clock-faithful projections of
// their own machine.
package costmodel

import (
	"math"
	"time"

	"apspark/internal/matrix"
)

// KernelModel converts kernel shapes into execution seconds.
type KernelModel struct {
	// FWRateIn/FWRateOut are Floyd-Warshall op rates (ops/s) inside and
	// outside the last-level cache; CacheKnee is the block edge where the
	// transition is centred and KneeWidth its softness.
	FWRateIn   float64
	FWRateOut  float64
	MPRateIn   float64 // min-plus product rates
	MPRateOut  float64
	EWRate     float64 // element-wise (MatMin, FW rank-1 update) ops/s
	CacheKnee  float64
	KneeWidth  float64
	MemPerElem float64 // bytes per matrix element (float64)
}

// PaperKernels returns the kernel model calibrated to the paper's cluster
// (2x Intel Xeon Gold 6130, MKL-backed SciPy/NumPy + Numba).
func PaperKernels() KernelModel {
	return KernelModel{
		FWRateIn:   0.763e9,
		FWRateOut:  0.700e9,
		MPRateIn:   0.730e9,
		MPRateOut:  0.640e9,
		EWRate:     1.2e9,
		CacheKnee:  1810,
		KneeWidth:  350,
		MemPerElem: 8,
	}
}

// blend interpolates between the in-cache and out-of-cache rates with a
// smooth logistic transition centred on the cache knee.
func (m KernelModel) blend(in, out, b float64) float64 {
	if m.KneeWidth <= 0 {
		if b <= m.CacheKnee {
			return in
		}
		return out
	}
	// logistic in b: weight of the out-of-cache rate
	x := (b - m.CacheKnee) / m.KneeWidth
	var w float64
	switch {
	case x > 30:
		w = 1
	case x < -30:
		w = 0
	default:
		w = 1 / (1 + math.Exp(-x))
	}
	return in*(1-w) + out*w
}

// FloydWarshall returns the cost of the O(b^3) FW kernel on a b x b block.
func (m KernelModel) FloydWarshall(b int) float64 {
	fb := float64(b)
	return fb * fb * fb / m.blend(m.FWRateIn, m.FWRateOut, fb)
}

// MinPlusMul returns the cost of an r x k by k x c min-plus product.
func (m KernelModel) MinPlusMul(r, k, c int) float64 {
	ops := float64(r) * float64(k) * float64(c)
	edge := float64(max3(r, k, c))
	return ops / m.blend(m.MPRateIn, m.MPRateOut, edge)
}

// MatMin returns the cost of an element-wise minimum over r x c elements.
func (m KernelModel) MatMin(r, c int) float64 {
	return float64(r) * float64(c) / m.EWRate
}

// FWUpdate returns the cost of the rank-1 Floyd-Warshall update on an
// r x c block (paper Table 1: FloydWarshallUpdate) — an O(rc) kernel.
func (m KernelModel) FWUpdate(r, c int) float64 {
	return 2 * float64(r) * float64(c) / m.EWRate
}

// ExtractCol returns the cost of pulling one column out of an r x c block.
func (m KernelModel) ExtractCol(r int) float64 {
	return float64(r) / m.EWRate
}

// Calibrate measures the kernels the solvers run — matrix.FloydWarshall and
// the fused matrix.MinPlusMulInto — at block edge minB and returns a model
// fitted to them; 128-256 completes in well under a second. Both kernels
// sit on the matrix package's row primitive, so on an AVX2 host the
// calibrated rates are the vector kernel's (matrix.KernelImpl says which),
// several times the defaults. The defaults themselves, PaperKernels, are
// the paper's constants and do not depend on the host: every committed
// Table 2/3 value and every phantom projection is computed from them.
func Calibrate(minB int) KernelModel {
	if minB < 32 {
		minB = 32
	}
	m := PaperKernels()
	// Measure FW.
	fw := measure(func(b int) func() {
		blk := randomishBlock(b)
		return func() { _ = matrix.FloydWarshall(blk) }
	}, minB)
	if fw > 0 {
		m.FWRateIn = fw
		m.FWRateOut = fw * (PaperKernels().FWRateOut / PaperKernels().FWRateIn)
	}
	mp := measure(func(b int) func() {
		x, y, dst := randomishBlock(b), randomishBlock(b), matrix.New(b, b)
		return func() { _ = matrix.MinPlusMulInto(x, y, dst) }
	}, minB)
	if mp > 0 {
		m.MPRateIn = mp
		m.MPRateOut = mp * (PaperKernels().MPRateOut / PaperKernels().MPRateIn)
	}
	return m
}

func measure(mk func(b int) func(), b int) float64 {
	run := mk(b)
	// warm-up
	run()
	start := time.Now()
	const reps = 3
	for i := 0; i < reps; i++ {
		run()
	}
	el := time.Since(start).Seconds() / reps
	if el <= 0 {
		return 0
	}
	fb := float64(b)
	return fb * fb * fb / el
}

func randomishBlock(b int) *matrix.Block {
	blk := matrix.New(b, b)
	for i := range blk.Data {
		// cheap LCG; values only need to be finite and varied
		blk.Data[i] = float64((i*1103515245 + 12345) % 1000)
	}
	return blk
}

func max3(a, b, c int) int {
	if b > a {
		a = b
	}
	if c > a {
		a = c
	}
	return a
}
