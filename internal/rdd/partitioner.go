package rdd

import (
	"apspark/internal/graph"
	"apspark/internal/pyhash"
)

// Partitioner assigns block keys to RDD partitions (paper §5.3). The two
// implementations that matter are PortableHash — Spark's default pySpark
// partitioner, whose XOR-mixing tuple hash skews badly on upper-triangular
// block keys — and MultiDiagonal, the paper's partitioner that balances
// block counts while spreading each block row/column across partitions.
type Partitioner interface {
	NumPartitions() int
	Partition(key graph.BlockKey) int
	Name() string
}

// PortableHash reproduces pySpark's portable_hash-based default
// partitioner ("PH" in the paper).
type PortableHash struct {
	Parts int
}

// NewPortableHash builds a PH partitioner with the given partition count.
func NewPortableHash(parts int) PortableHash { return PortableHash{Parts: parts} }

// NumPartitions implements Partitioner.
func (p PortableHash) NumPartitions() int { return p.Parts }

// Name implements Partitioner.
func (p PortableHash) Name() string { return "PH" }

// Partition implements Partitioner with the exact CPython hash of the
// (I, J) tuple.
func (p PortableHash) Partition(key graph.BlockKey) int {
	return pyhash.Mod(pyhash.Tuple2(int64(key.I), int64(key.J)), p.Parts)
}

// MultiDiagonal is the paper's multi-diagonal partitioner ("MD", §5.3,
// Figure 4): block (I, J) with wrapped diagonal d = J - I receives the
// rank of the block in a diagonal-major enumeration of the upper triangle,
// reduced modulo the partition count. The enumeration is a bijection, so
// partition cardinalities differ by at most one block, and consecutive
// blocks along a diagonal land in distinct partitions, which spreads every
// block row and block column.
type MultiDiagonal struct {
	Parts int
	Q     int // number of block rows/columns
}

// NewMultiDiagonal builds an MD partitioner for a q x q block grid.
func NewMultiDiagonal(parts, q int) MultiDiagonal {
	return MultiDiagonal{Parts: parts, Q: q}
}

// NumPartitions implements Partitioner.
func (p MultiDiagonal) NumPartitions() int { return p.Parts }

// Name implements Partitioner.
func (p MultiDiagonal) Name() string { return "MD" }

// Partition implements Partitioner. Lower-triangular keys (produced for
// transposed block copies) are mirrored onto their upper-triangular twin,
// matching the paper's rule that the executor owning A_IJ also owns A_JI.
func (p MultiDiagonal) Partition(key graph.BlockKey) int {
	i, j := key.I, key.J
	if i > j {
		i, j = j, i
	}
	d := j - i
	rank := p.diagStart(d) + int64(i)
	return int(rank % int64(p.Parts))
}

// diagStart returns the rank of the first block on diagonal d: diagonals
// 0..d-1 hold q, q-1, ..., q-d+1 blocks.
func (p MultiDiagonal) diagStart(d int) int64 {
	q := int64(p.Q)
	dd := int64(d)
	return dd*q - dd*(dd-1)/2
}

// Modulo is a trivial partitioner (I + J modulo partitions) used in
// engine tests where hash behaviour is irrelevant.
type Modulo struct {
	Parts int
}

// NumPartitions implements Partitioner.
func (p Modulo) NumPartitions() int { return p.Parts }

// Name implements Partitioner.
func (p Modulo) Name() string { return "MOD" }

// Partition implements Partitioner.
func (p Modulo) Partition(key graph.BlockKey) int {
	return (((key.I + key.J) % p.Parts) + p.Parts) % p.Parts
}
