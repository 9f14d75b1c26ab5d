package matrix

import (
	"fmt"
	"sync"
	"unsafe"
)

// This file is the fused min-plus kernel layer. The paper's blocked solvers
// are kernel-bound: essentially all compute time goes into MatProd /
// MinPlus / FloydWarshall on b x b blocks, invoked O(q^3)-ish times per
// solve. Every one of those kernels is the same inner loop, and it is
// written once, as the row primitive
//
//	minPlusRow(d, a, b, ldb):  d[j] = min(d[j], min_k a[k] + b[k*ldb+j])
//
// The min-plus product folds straight into a caller-provided destination by
// calling it once per (destination row, kk/jj tile); the Floyd-Warshall
// kernels call it with len(a) == 1, one pivot at a time. On amd64 with AVX2
// (checked once at init with CPUID/XGETBV) the primitive is the assembly
// loop in minplus_amd64.s: 32 columns of d stay in eight ymm accumulators
// across the whole k run. Everywhere else — other architectures, CPUs
// without AVX2, builds with -tags purego — it is minPlusRowGeneric below,
// which is also the differential oracle the vector path is tested against.
// KernelImpl reports which one this process runs; nothing selects it.
//
// Kernel contract: operands are NaN-free and never -Inf (+Inf is the
// semiring zero; Inf + finite = Inf needs no special case). VMINPD and Go's
// min builtin differ only on NaN and on the sign of a zero result, so under
// the contract the two paths are == on every element, and bit-identical
// whenever no -0 is present. d must not overlap a, and may overlap b only
// by being exactly the b row (the in-place Floyd-Warshall pivot row,
// len(a) == 1): every chunk of d is loaded before it is stored.
//
// Every variant computes the same element values as the unfused reference
// kernels in kernels.go: min-plus candidates are identical sums and float64
// min is exact, so reassociating the fold cannot change results.
//
// The AVX2 primitive is at its issue limit: a 256^3 product (16.7 M
// relaxations) takes 1.27 ms at a measured 3.16 GHz, 4.2 relaxations or
// 2.1 floating-point µops (one add, one min per four lanes) per cycle, and
// the dense solve's profile is 76 % row kernel. Two ideas that looked like
// they would go further did not survive measurement: seeding the
// accumulators from the base block inside the primitive (no separate copy
// pass) is slower, because the strided cold loads stall the FP pipe where
// the streaming copy prefetches; and staging the right-hand operand
// already tile-packed (one pack per panel instead of one per product) is no
// faster, because the copy into the 32 KiB packed tile is what brings it
// into L1.

// KernelImpl names the min-plus row primitive this process runs: "avx2" or
// "generic".
func KernelImpl() string {
	if useAVX2 {
		return "avx2"
	}
	return "generic"
}

// HasAVX2 reports whether this process may run AVX2 assembly: the build
// carries it (amd64 without the purego tag) and the CPU and OS support it.
// It is the one detection site; the sparse engine's batched kernel asks
// here too.
func HasAVX2() bool { return useAVX2 }

// minPlusRowGeneric is the portable row primitive: the k loop unrolled
// four-wide so d is read and written once per pivot group, with a pivot
// group that is entirely +Inf on the a side skipped.
func minPlusRowGeneric(d, a, b []float64, ldb int) {
	k := 0
	for ; k+3 < len(a); k += 4 {
		a0, a1, a2, a3 := a[k], a[k+1], a[k+2], a[k+3]
		if a0 == Inf && a1 == Inf && a2 == Inf && a3 == Inf {
			continue
		}
		b0 := b[k*ldb:][:len(d)]
		b1 := b[(k+1)*ldb:][:len(d)]
		b2 := b[(k+2)*ldb:][:len(d)]
		b3 := b[(k+3)*ldb:][:len(d)]
		// The min builtin lowers to branchless float min instructions;
		// with the unconditional store the loop body has no
		// data-dependent branches at all.
		for j, dj := range d {
			s := min(a0+b0[j], a1+b1[j])
			s = min(s, a2+b2[j])
			s = min(s, a3+b3[j])
			d[j] = min(dj, s)
		}
	}
	for ; k < len(a); k++ {
		ak := a[k]
		if ak == Inf {
			continue
		}
		bk := b[k*ldb:][:len(d)]
		for j, dj := range d {
			d[j] = min(dj, ak+bk[j])
		}
	}
}

// parMinRows is the smallest per-goroutine row panel worth forking for.
// Below it, the fork/join dominates the O(rows * k * cols) work. Sized for
// the vector kernel on a 2-vCPU host (serial vs 2 workers, square blocks:
// b=128 147 vs 175 us, b=192 650 vs 690 us, b=256 1.77 vs 1.25 ms, b=512
// 15.0 vs 10.0 ms): two shards pay from 256 rows up.
const parMinRows = 128

// fwParMinRows is parMinRows for the sharded Floyd-Warshall, which forks
// and joins once per pivot (n rounds) instead of once per call: a pivot is
// only n*n/shards relaxations per shard, so the panel must be much taller
// before a ~70 us fork/join is amortized (serial vs 2 workers: n=256 3.8
// vs 4.9 ms, n=512 45 vs 58 ms, n=1024 495 vs 316 ms).
const fwParMinRows = 512

// ParallelMinEdge is the block edge below which the parallel tile path is
// never attempted (callers may use it to gate worker-budget plumbing).
const ParallelMinEdge = 2 * parMinRows

// sameBacking reports whether two dense blocks share a backing array (the
// aliasing case the fused in-place kernels must detour around).
func sameBacking(a, b *Block) bool {
	return len(a.Data) > 0 && len(b.Data) > 0 && &a.Data[0] == &b.Data[0]
}

// minPlusPanel folds dst = min(dst, a (x) b) over row-major panels with
// explicit leading dimensions (BLAS-style): a is m x kd with stride lda,
// b is kd x n with stride ldb, dst is m x n with stride ldd. Panels may be
// sub-views of larger matrices; dst must not overlap a or b.
//
// The kk/jj 2D tiling gives every destination row the same tile of b to
// sweep; the add/min itself is minPlusRow. The tile is first packed into a
// contiguous stack buffer: at a power-of-two ldb its rows would all map to
// the same few L1 sets and evict each other (measured at b=256: 1.9 ms
// unpacked, 1.2 ms packed).
//
// With upper set, dst is rows row0.. of a symmetric product and only its
// tiles on or above the diagonal are folded: destination row row0+i skips
// every column tile that ends at or before it (see MinPlusSymIntoPar).
func minPlusPanel(a []float64, lda int, b []float64, ldb int, dst []float64, ldd int, m, kd, n int, upper bool, row0 int) {
	// The packed tile starts on a cache line: the vector primitive reads it
	// 32 bytes at a time, and off a 32-byte boundary every other read
	// straddles two lines. A stack array is only 8-byte aligned, and where
	// it lands depends on the frames above it (the same kernel measured 9 %
	// slower under one caller than under another), so the buffer carries a
	// line of slack and the tile starts at its first aligned element.
	var buf [tile*tile + 7]float64
	pack := buf[(-uintptr(unsafe.Pointer(&buf[0]))%64)/8:][:tile*tile]
	for kk := 0; kk < kd; kk += tile {
		kmax := min(kk+tile, kd)
		for jj := 0; jj < n; jj += tile {
			jmax := min(jj+tile, n)
			w := jmax - jj
			rows := m
			if upper {
				if rows = min(m, jmax-row0); rows <= 0 {
					continue
				}
			}
			for k := kk; k < kmax; k++ {
				copy(pack[(k-kk)*w:(k-kk+1)*w], b[k*ldb+jj:k*ldb+jmax])
			}
			for i := 0; i < rows; i++ {
				ai := a[i*lda+kk : i*lda+kmax]
				if allInf(ai) {
					continue
				}
				minPlusRow(dst[i*ldd+jj:i*ldd+jmax], ai, pack, w)
			}
		}
	}
}

// allInf reports whether every multiplier in a is +Inf, in which case the
// run contributes nothing. The vector primitive has no branch to skip a
// +Inf multiplier, so whole runs are skipped here: 11 % of the 64-pivot
// runs of a paper-density cb solve (388 ms per solve without the check,
// 331 ms with it); a run with a finite head costs one compare.
func allInf(a []float64) bool {
	for _, v := range a {
		if v != Inf {
			return false
		}
	}
	return true
}

// minPlusPanelPar shards minPlusPanel across workers goroutines by
// contiguous destination row panels, so writes never overlap and the
// result is identical to the serial path regardless of worker count.
// Falls back to the serial path when the panel is too small to split.
func minPlusPanelPar(a []float64, lda int, b []float64, ldb int, dst []float64, ldd int, m, kd, n, workers int, upper bool) {
	shards := workers
	if maxShards := m / parMinRows; shards > maxShards {
		shards = maxShards
	}
	if shards < 2 {
		minPlusPanel(a, lda, b, ldb, dst, ldd, m, kd, n, upper, 0)
		return
	}
	chunk := (m + shards - 1) / shards
	var wg sync.WaitGroup
	for lo := 0; lo < m; lo += chunk {
		hi := lo + chunk
		if hi > m {
			hi = m
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			minPlusPanel(a[lo*lda:], lda, b, ldb, dst[lo*ldd:], ldd, hi-lo, kd, n, upper, lo)
		}(lo, hi)
	}
	wg.Wait()
}

// checkMinPlusShapes validates one fused min-plus call.
func checkMinPlusShapes(op string, a, b, dst *Block) error {
	if a.C != b.R {
		return fmt.Errorf("matrix: %s inner dim mismatch %dx%d vs %dx%d", op, a.R, a.C, b.R, b.C)
	}
	if dst.R != a.R || dst.C != b.C {
		return fmt.Errorf("matrix: %s destination is %dx%d, want %dx%d", op, dst.R, dst.C, a.R, b.C)
	}
	return nil
}

// MinPlusInto folds the min-plus product into the destination in one fused
// pass: dst = min(dst, a (x) b). It allocates nothing on the fast path and
// never materializes the product. If any operand is phantom the call is a
// no-op (phantoms carry no elements to fold). If dst aliases a or b the
// kernel detours through a pooled temporary so the result keeps the exact
// functional min(dst, a (x) b) semantics.
func MinPlusInto(a, b, dst *Block) error { return MinPlusIntoPar(a, b, dst, 1) }

// MinPlusIntoPar is MinPlusInto with an intra-kernel host-parallelism
// budget: when the destination has at least ParallelMinEdge rows and
// workers > 1, the tile grid is sharded across goroutines by destination
// row panel. Results are identical to the serial path for any worker
// count.
func MinPlusIntoPar(a, b, dst *Block, workers int) error {
	if err := checkMinPlusShapes("MinPlusInto", a, b, dst); err != nil {
		return err
	}
	if a.Phantom() || b.Phantom() || dst.Phantom() {
		return nil
	}
	if sameBacking(dst, a) || sameBacking(dst, b) {
		tmp := GetInf(dst.R, dst.C)
		minPlusPanelPar(a.Data, a.C, b.Data, b.C, tmp.Data, tmp.C, a.R, a.C, b.C, workers, false)
		err := MatMinInPlace(dst, tmp)
		Put(tmp)
		return err
	}
	minPlusPanelPar(a.Data, a.C, b.Data, b.C, dst.Data, dst.C, a.R, a.C, b.C, workers, false)
	return nil
}

// MinPlusSymIntoPar is MinPlusIntoPar for the symmetric case dst = min(dst,
// a (x) aT), where the caller passes aT, the transpose of a, and dst is
// square and symmetric — the diagonal targets of the blocked solvers' third
// phase, A_KK = min(A_KK, A_Ki (x) A_iK). The product is symmetric too
// (entry (r, c) and entry (c, r) are minima over the same sums, addition
// commuting), so only the tiles on or above the diagonal are folded — 10 of
// the 16 at b = 256 — and the rest are mirrored from them: every element
// equals MinPlusIntoPar's. Phantom operands make the call a no-op.
func MinPlusSymIntoPar(a, aT, dst *Block, workers int) error {
	if err := checkMinPlusShapes("MinPlusSymInto", a, aT, dst); err != nil {
		return err
	}
	if aT.R != a.C || aT.C != a.R {
		return fmt.Errorf("matrix: MinPlusSymInto right operand is %dx%d, not the transpose of %dx%d", aT.R, aT.C, a.R, a.C)
	}
	if a.Phantom() || aT.Phantom() || dst.Phantom() {
		return nil
	}
	if sameBacking(dst, a) || sameBacking(dst, aT) {
		return fmt.Errorf("matrix: MinPlusSymInto destination aliases an operand")
	}
	n := dst.R
	minPlusPanelPar(a.Data, a.C, aT.Data, aT.C, dst.Data, n, n, a.C, n, workers, true)
	for jj := tile; jj < n; jj += tile {
		w := min(tile, n-jj)
		// Column tile jj was folded for rows [0, jj+w); the rows above its
		// diagonal tile are the transpose of row band jj's columns [0, jj).
		transposeLd(dst.Data[jj*n:], n, dst.Data[jj:], n, jj, w)
	}
	return nil
}

// MinPlusMulInto computes dst = a (x) b, overwriting dst, with no
// intermediate allocation. Phantom operands make the call a no-op; an
// aliased destination detours through a pooled temporary.
func MinPlusMulInto(a, b, dst *Block) error { return MinPlusMulIntoPar(a, b, dst, 1) }

// MinPlusMulIntoPar is MinPlusMulInto with an intra-kernel parallelism
// budget (see MinPlusIntoPar).
func MinPlusMulIntoPar(a, b, dst *Block, workers int) error {
	if err := checkMinPlusShapes("MinPlusMulInto", a, b, dst); err != nil {
		return err
	}
	if a.Phantom() || b.Phantom() || dst.Phantom() {
		return nil
	}
	if sameBacking(dst, a) || sameBacking(dst, b) {
		tmp := GetInf(dst.R, dst.C)
		minPlusPanelPar(a.Data, a.C, b.Data, b.C, tmp.Data, tmp.C, a.R, a.C, b.C, workers, false)
		copy(dst.Data, tmp.Data)
		Put(tmp)
		return nil
	}
	for i := range dst.Data {
		dst.Data[i] = Inf
	}
	minPlusPanelPar(a.Data, a.C, b.Data, b.C, dst.Data, dst.C, a.R, a.C, b.C, workers, false)
	return nil
}

// FloydWarshallPar is the classic in-place Floyd-Warshall kernel with
// intra-kernel host parallelism: within each pivot k the row updates are
// independent (row k itself is a fixed point of its own pivot, so the
// pivot row is stable while workers read it), and sharding rows across
// goroutines yields exactly the serial kernel's results. Falls back to the
// serial kernel when the block is small or workers <= 1.
func FloydWarshallPar(a *Block, workers int) error {
	if a.R != a.C {
		return fmt.Errorf("matrix: FloydWarshall needs a square block, got %dx%d", a.R, a.C)
	}
	if a.Phantom() {
		return nil
	}
	return floydWarshallSharded(a, min(workers, a.R/fwParMinRows))
}

// floydWarshallSharded is FloydWarshallPar on a dense square block with
// the shard count already decided (tests call it below the size at which
// FloydWarshallPar would shard).
func floydWarshallSharded(a *Block, shards int) error {
	if shards < 2 {
		return FloydWarshall(a)
	}
	n := a.R
	for _, v := range a.Data {
		if v < 0 {
			// Sharding is only safe while every pivot row is a fixed point
			// of its own pivot, which holds iff the diagonal stays
			// non-negative for the whole run. Any negative entry can
			// manufacture a negative cycle (hence a negative diagonal)
			// mid-run, making row k rewrite itself while other shards read
			// it — a data race. Non-negative inputs (every APSP input in
			// this repository) keep all entries non-negative inductively,
			// so the check is exact, not conservative. Fall back to the
			// serial kernel, whose results we promise to match.
			return FloydWarshall(a)
		}
	}
	for i := 0; i < n; i++ {
		if a.Data[i*n+i] > 0 {
			a.Data[i*n+i] = 0
		}
	}
	chunk := (n + shards - 1) / shards
	data := a.Data
	for k := 0; k < n; k++ {
		var wg sync.WaitGroup
		for lo := 0; lo < n; lo += chunk {
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			wg.Add(1)
			go func(lo, hi, k int) {
				defer wg.Done()
				// Row k is a fixed point of pivot k here, and the row
				// primitive stores unconditionally: skip it, so no shard
				// writes the row the others are reading.
				fwRelax(data, n, lo, min(hi, k), 0, n, k)
				fwRelax(data, n, max(lo, k+1), hi, 0, n, k)
			}(lo, hi, k)
		}
		wg.Wait()
	}
	return nil
}

// fwBlockEdge is the internal decomposition edge of the blocked in-place
// Floyd-Warshall: small enough that the phase-1/2 pivot panels stay cache
// resident, large enough that phase 3 — which is (q-1)^2/q^2 of the work —
// runs through the fused tiled product.
const fwBlockEdge = 64

// fwRelax applies the Floyd-Warshall inner update with pivot k to the
// sub-rectangle [iLo,iHi) x [jLo,jHi) of the square matrix held in data
// with stride n: one single-pivot minPlusRow per row. The multiplier is
// copied out first because for jLo <= k < jHi it lives inside the row being
// rewritten.
func fwRelax(data []float64, n, iLo, iHi, jLo, jHi, k int) {
	krow := data[k*n+jLo : k*n+jHi]
	for i := iLo; i < iHi; i++ {
		aik := [1]float64{data[i*n+k]}
		if aik[0] == Inf {
			continue
		}
		minPlusRow(data[i*n+jLo:i*n+jHi], aik[:], krow, 0)
	}
}

// FloydWarshallBlocked runs Floyd-Warshall in place on a square dense
// block via the 3-phase Venkataraman blocked scheme, with the dominant
// phase-3 off-diagonal updates expressed as fused tiled min-plus products
// (minPlusPanel) instead of a scalar triple loop. The diagonal is clamped
// to 0 first, matching FloydWarshall. Element values equal the classic
// kernel's up to float addition order across pivot blocks; for the
// distance semiring both compute exact shortest paths within the block.
func FloydWarshallBlocked(a *Block) error { return FloydWarshallBlockedPar(a, 1) }

// FloydWarshallBlockedPar is FloydWarshallBlocked with an intra-kernel
// parallelism budget: phase-3 row panels are sharded across goroutines.
func FloydWarshallBlockedPar(a *Block, workers int) error {
	return FloydWarshallBlockedSize(a, fwBlockEdge, workers)
}

// FloydWarshallBlockedSize exposes the decomposition edge, primarily so
// the sequential reference solver can run the paper's blocked algorithm at
// an arbitrary block size on the same kernel.
func FloydWarshallBlockedSize(a *Block, bs, workers int) error {
	if a.R != a.C {
		return fmt.Errorf("matrix: FloydWarshallBlocked needs a square block, got %dx%d", a.R, a.C)
	}
	if bs < 1 {
		return fmt.Errorf("matrix: FloydWarshallBlocked block size %d < 1", bs)
	}
	if a.Phantom() {
		return nil
	}
	n := a.R
	if bs >= n {
		return FloydWarshall(a)
	}
	for i := 0; i < n; i++ {
		if a.Data[i*n+i] > 0 {
			a.Data[i*n+i] = 0
		}
	}
	data := a.Data
	for lo := 0; lo < n; lo += bs {
		hi := lo + bs
		if hi > n {
			hi = n
		}
		// Phase 1: close the diagonal block over its own pivots.
		for k := lo; k < hi; k++ {
			fwRelax(data, n, lo, hi, lo, hi, k)
		}
		// Phase 2: sweep the pivot row and column panels. The in-place
		// ascending-pivot relaxation is the reference blocked algorithm's;
		// keeping it bit-compatible with the sequential solver matters more
		// than fusing this O(n^2 b) slice of the work.
		for k := lo; k < hi; k++ {
			fwRelax(data, n, lo, hi, 0, lo, k)
			fwRelax(data, n, lo, hi, hi, n, k)
			fwRelax(data, n, 0, lo, lo, hi, k)
			fwRelax(data, n, hi, n, lo, hi, k)
		}
		// Phase 3: every off block gets dst = min(dst, A[I,t] (x) A[t,J]).
		// The panels are final after phase 2 and disjoint from every
		// destination, so this is a pure fused product — the same candidate
		// sums, in a faster loop order.
		kd := hi - lo
		for _, rows := range [2][2]int{{0, lo}, {hi, n}} {
			rLo, rHi := rows[0], rows[1]
			if rLo >= rHi {
				continue
			}
			for _, cols := range [2][2]int{{0, lo}, {hi, n}} {
				cLo, cHi := cols[0], cols[1]
				if cLo >= cHi {
					continue
				}
				minPlusPanelPar(
					data[rLo*n+lo:], n,
					data[lo*n+cLo:], n,
					data[rLo*n+cLo:], n,
					rHi-rLo, kd, cHi-cLo, workers, false)
			}
		}
	}
	return nil
}
