// Package pyhash reimplements pySpark's portable_hash — the hash behind
// Spark's default Python partitioner ("Portable Hash" in the paper). The
// paper attributes the skewed RDD partition sizes of the PH partitioner to
// this function's XOR-based mixing of tuple elements, which collides badly
// on upper-triangular (I, J) block keys; reproducing the exact bit-for-bit
// hash reproduces the exact skew (paper §5.3, Figure 3 bottom).
//
// Reference (pyspark/rdd.py):
//
//	def portable_hash(x):
//	    if x is None: return 0
//	    if isinstance(x, tuple):
//	        h = 0x345678
//	        for i in x:
//	            h ^= portable_hash(i)
//	            h *= 1000003
//	            h &= sys.maxsize
//	        h ^= len(x)
//	        if h == -1: h = -2
//	        return h
//	    return hash(x)
//
// On a 64-bit CPython, sys.maxsize is 2^63-1 and hash(int) is the identity
// for values smaller than 2^61-1 (with -1 mapping to -2), which covers
// every block index this repository ever hashes.
package pyhash

const maxsize = uint64(1)<<63 - 1 // sys.maxsize on 64-bit CPython

const (
	tupleSeed = 0x345678
	tupleMult = 1000003
)

// Int returns CPython's hash of a small integer: the identity, except that
// -1 hashes to -2 (CPython reserves -1 as an error sentinel).
func Int(x int64) int64 {
	if x == -1 {
		return -2
	}
	return x
}

// Tuple returns portable_hash of a tuple of small integers.
func Tuple(items ...int64) int64 {
	h := uint64(tupleSeed)
	for _, it := range items {
		h ^= uint64(Int(it))
		h *= tupleMult
		h &= maxsize
	}
	h ^= uint64(len(items))
	v := int64(h)
	if v == -1 {
		v = -2
	}
	return v
}

// Tuple2 is the two-element special case used for (I, J) block keys; it is
// the hot path of the PH partitioner.
func Tuple2(a, b int64) int64 {
	h := uint64(tupleSeed)
	h ^= uint64(Int(a))
	h *= tupleMult
	h &= maxsize
	h ^= uint64(Int(b))
	h *= tupleMult
	h &= maxsize
	h ^= 2
	v := int64(h)
	if v == -1 {
		v = -2
	}
	return v
}

// Mod reduces a hash to a partition index with Python's modulo semantics:
// the result always has the sign of the (positive) divisor.
func Mod(h int64, p int) int {
	if p <= 0 {
		return 0
	}
	m := int(h % int64(p))
	if m < 0 {
		m += p
	}
	return m
}
