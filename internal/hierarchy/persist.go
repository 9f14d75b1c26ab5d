package hierarchy

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"

	"apspark/internal/fsx"
	"apspark/internal/graph"
	"apspark/internal/sparse"
)

// Hierarchy file format (little-endian), version 1:
//
//	magic   "APSPHIER"                     8 bytes
//	u32     version (1)
//	u64     n, parts, targetSize           build inputs
//	i64     seed
//	u64     B (boundary vertices), E (directed overlay entries)
//	u64     shortcutEdges (undirected, informational)
//	i32[n]  part table
//	i32[B+1] overlay rowPtr
//	i32[E]  overlay colIdx
//	f64[E]  overlay weights
//	u32     CRC-32C over everything above
//
// Only the partition assignment and the overlay CSR are stored: the
// boundary flags, vertex layout and overlay ids are all deterministic
// functions of (graph, part table), recomputed on load by the same code
// that built them. Save publishes through fsx.Pending, so a crashed or
// failed save never leaves a partial file at the target path.
const (
	hierMagic   = "APSPHIER"
	hierVersion = 1
)

var (
	// ErrNotAHierarchy marks a file without the hierarchy magic.
	ErrNotAHierarchy = errors.New("hierarchy: not a hierarchy file")
	// ErrCorrupt marks a hierarchy file that fails checksum or
	// structural validation.
	ErrCorrupt = errors.New("hierarchy: corrupt hierarchy file")
)

// Save writes the oracle's partition table and overlay atomically to
// path.
func (o *Oracle) Save(path string) error {
	f, err := fsx.Create(path)
	if err != nil {
		return err
	}
	defer f.Abort()
	crc := crc32.New(crc32.MakeTable(crc32.Castagnoli))
	bw := bufio.NewWriterSize(io.MultiWriter(f, crc), 1<<20)
	rowPtr, colIdx, weights := o.ovlG.CSR()
	if _, err := bw.WriteString(hierMagic); err != nil {
		return err
	}
	pt := o.pt
	for _, v := range []any{
		uint32(hierVersion),
		uint64(o.g.N), uint64(pt.Parts), uint64(pt.TargetSize),
		pt.Seed,
		uint64(o.ovlG.N), uint64(len(colIdx)),
		uint64(o.stats.ShortcutEdges),
		pt.Part, rowPtr, colIdx, weights,
	} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := binary.Write(f, binary.LittleEndian, crc.Sum32()); err != nil {
		return err
	}
	return f.Commit()
}

// Load reads a hierarchy saved by Save back over the same graph,
// recomputing the derived partition structure and skipping every
// boundary solve — the piece that lets a serve restart skip re-solving.
// cacheBytes budgets the oracle's local-row cache (<= 0: default).
func Load(path string, g *graph.Graph, cacheBytes int64) (*Oracle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	crc := crc32.New(crc32.MakeTable(crc32.Castagnoli))
	br := &crcReader{r: bufio.NewReaderSize(f, 1<<20), h: crc}
	magic := make([]byte, len(hierMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotAHierarchy, err)
	}
	if string(magic) != hierMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrNotAHierarchy, magic)
	}
	var version uint32
	var n, parts, targetSize, b, e, shortcuts uint64
	var seed int64
	for _, v := range []any{&version, &n, &parts, &targetSize, &seed, &b, &e, &shortcuts} {
		if err := binary.Read(br, binary.LittleEndian, v); err != nil {
			return nil, fmt.Errorf("%w: short header: %v", ErrCorrupt, err)
		}
	}
	if version != hierVersion {
		return nil, fmt.Errorf("hierarchy: file version %d, this build reads %d", version, hierVersion)
	}
	if int(n) != g.N {
		return nil, fmt.Errorf("hierarchy: file built for n=%d, graph has n=%d", n, g.N)
	}
	if parts > n+1 || b > n || e > math.MaxInt32 {
		return nil, fmt.Errorf("%w: implausible header (parts=%d B=%d E=%d)", ErrCorrupt, parts, b, e)
	}
	part := make([]int32, n)
	rowPtr := make([]int32, b+1)
	colIdx := make([]int32, e)
	weights := make([]float64, e)
	for _, v := range []any{part, rowPtr, colIdx, weights} {
		if err := binary.Read(br, binary.LittleEndian, v); err != nil {
			return nil, fmt.Errorf("%w: short payload: %v", ErrCorrupt, err)
		}
	}
	sum := crc.Sum32()
	var stored uint32
	// Read the trailer through the buffered reader (which has likely
	// already pulled it in) but not through the checksum.
	if err := binary.Read(br.r, binary.LittleEndian, &stored); err != nil {
		return nil, fmt.Errorf("%w: missing checksum: %v", ErrCorrupt, err)
	}
	if stored != sum {
		return nil, fmt.Errorf("%w: checksum mismatch (stored %08x, computed %08x)", ErrCorrupt, stored, sum)
	}
	for v, p := range part {
		if p < 0 || uint64(p) >= parts {
			return nil, fmt.Errorf("%w: vertex %d assigned to partition %d of %d", ErrCorrupt, v, p, parts)
		}
	}
	pt := &Partition{
		Parts:      int(parts),
		Part:       part,
		TargetSize: int(targetSize),
		Seed:       seed,
	}
	pt.index(g)
	if pt.BoundaryVerts() != int(b) {
		return nil, fmt.Errorf("%w: file has %d boundary vertices, graph+partition give %d (wrong graph?)", ErrCorrupt, b, pt.BoundaryVerts())
	}
	ovlG, err := graph.FromCSR(int(b), rowPtr, colIdx, weights)
	if err != nil {
		return nil, fmt.Errorf("%w: overlay: %v", ErrCorrupt, err)
	}
	return newOracle(g, sparse.New(g), pt, ovlG, int(shortcuts), cacheBytes)
}

// crcReader tees everything read through the checksum.
type crcReader struct {
	r io.Reader
	h hash.Hash32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if n > 0 {
		c.h.Write(p[:n])
	}
	return n, err
}
