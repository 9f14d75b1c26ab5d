// Package store persists a solved all-pairs distance matrix as an on-disk
// tiled file and serves it back through a two-level, byte-budgeted cache
// hierarchy, so a matrix far larger than RAM can be queried point-wise at
// serving-path throughput.
//
// The paper's solvers stage b x b blocks through a shared file system
// (§4.2/§4.5) but discard the result after printing; this package turns
// that final matrix into a durable, queryable artifact — the missing
// serving half of the pipeline. Layout (little-endian):
//
//	[0:8]    magic "APSPTDS1"
//	[8:12]   uint32 format version (3)
//	[12:16]  uint32 n (vertices per side)
//	[16:20]  uint32 b (tile edge; trailing tiles are ragged)
//	[20:24]  uint32 q = ceil(n/b) (tiles per side, redundant, validated)
//	[24:...] q*q index entries, row-major: {uint64 offset, uint64 length,
//	         uint32 crc32c, byte codec, 3 zero bytes}
//	[...]    tile payloads, contiguous in index order: raw tiles are
//	         matrix.Block.Marshal bytes; compressed tiles hold the codec's
//	         encoding (see codec.go) and are strictly smaller than raw
//
// Each index entry names the codec of its payload, so tile lengths vary,
// and Open enforces that the payloads are laid out contiguously (offset
// i+1 = offset i + length i), which is what lets the raw-panel copy path
// move whole row panels as one span without decoding. This build reads
// exactly what it writes: any other version (1 had no checksums, 2 no
// codec byte; nothing has written either since) and any codec byte it
// does not know fail Open with ErrVersion.
//
// Every index entry carries the CRC32C (Castagnoli) of its tile's encoded
// bytes, and every tile is verified once: its first touch since open, by
// either read path and whatever its codec, reads the whole tile, checks
// the checksum and the codec header, and memoises the tile's row table
// (nothing for fixed-width codecs, 8 bytes per restart group for ivarint:
// under 0.2 % of the bytes of the tiles touched). Later row reads of the
// tile are small and trusted (raw, f32) or held to the memoised restart-
// group checksums (ivarint). A tile that fails any check is quarantined:
// later reads fail fast with ErrCorruptTile without re-reading the disk,
// and the quarantine count is surfaced for health reporting (a serving
// layer can degrade or recompute instead of serving garbage).
//
// Disk reads can also be retried: Options.ReadRetries grants a bounded
// retry budget with exponential backoff for transient I/O errors (a
// checksum mismatch is not transient and is never retried).
//
// The read path is built for concurrent serving:
//
//   - The tile cache, and the row cache above it, are each a
//     cache.Sharded: lock-striped, so queries on different tiles or rows
//     never serialize on one lock, with concurrent misses on the same
//     tile or row coalesced singleflight-style: one goroutine reads the
//     disk, the rest wait for its result.
//   - An assembled-row cache sits above the tiles: Row/RowView/RowInto
//     (and Dist, when row caching is on) serve whole n-length rows from
//     one lookup, with zero tile traffic on a hit.
//   - A row-cache miss does not decode whole tiles: once a tile is
//     verified, the byte span holding the wanted row (the row itself for
//     raw and f32, its restart group for ivarint) is read straight from
//     its file offset and decoded into the caller's buffer, so assembling
//     a row costs q small preads. IO staging buffers come from a
//     sync.Pool, keeping misses allocation-free.
//
// Tiles and rows handed out are shared read-only between concurrent
// callers and owned by their cache: they are allocated on the heap, never
// drawn from or returned to the matrix block arena, so eviction simply
// drops the reference and the pool-safety rule ("never Put a block that
// escaped") holds by construction.
package store

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"apspark/internal/cache"
	"apspark/internal/matrix"
	"apspark/internal/obs"
)

const (
	magic       = "APSPTDS1"
	version     = 3
	fileHdrLen  = 24
	idxEntryLen = 24
)

// castagnoli is the CRC32C table shared by writers and readers; hardware
// CRC32C instructions make the checksum a negligible fraction of tile IO.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Typed errors for the failure modes an operator must tell apart: a file
// that is not a store at all, a store from a future format, a malformed
// or truncated store, and a store whose bytes rotted after it was
// written. All Open and read errors wrap one of these (errors.Is).
var (
	// ErrNotAStore means the file does not begin with the store magic.
	ErrNotAStore = errors.New("store: not a tiled distance store")
	// ErrVersion means the format version is one this build cannot read.
	ErrVersion = errors.New("store: unsupported format version")
	// ErrMalformed means the header, index or file size are inconsistent:
	// the file is recognizably a store but cannot be trusted.
	ErrMalformed = errors.New("store: malformed store file")
	// ErrCorruptTile means a tile's bytes failed their CRC32C checksum
	// (or decoded to the wrong shape). The tile is quarantined: the store
	// will not serve data from it again, and Snapshot().Quarantined counts
	// it so a serving layer can report degraded health or recompute the
	// rows.
	ErrCorruptTile = errors.New("store: corrupt tile")
)

// WriteWithCodec cuts the dense n x n distance matrix into
// blockSize-edged tiles and publishes the store file at path (it appears
// only once complete). Each tile is offered to codec (the zero Codec is
// raw) and falls back to raw bytes whenever the codec declines it or
// fails to shrink it, so the store is valid — and no larger than its raw
// equivalent — for any input. The matrix is only read, never retained.
func WriteWithCodec(path string, dist *matrix.Block, blockSize int, codec Codec) error {
	if dist == nil || dist.Phantom() {
		return fmt.Errorf("store: need a dense matrix (phantom or truncated solves have no distances)")
	}
	if dist.R != dist.C {
		return fmt.Errorf("store: matrix is %dx%d, want square", dist.R, dist.C)
	}
	n := dist.R
	w, err := NewPanelWriterWithOptions(path, n, blockSize, PanelWriterOptions{Codec: codec})
	if err != nil {
		return err
	}
	defer w.Abort()
	for bi := 0; bi < w.Panels(); bi++ {
		base, h := panelRows(n, w.BlockSize(), bi)
		// A row panel of a row-major matrix is a contiguous run of it.
		if err := w.WritePanel(&matrix.Block{R: h, C: n, Data: dist.Data[base*n : (base+h)*n]}); err != nil {
			return err
		}
	}
	return w.Close()
}

// tileEdge returns the edge length of the k-th tile along one dimension:
// blockSize for all but possibly the last, which may be ragged.
func tileEdge(n, blockSize, k int) int {
	e := n - k*blockSize
	if e > blockSize {
		e = blockSize
	}
	return e
}

type tileRef struct {
	off, length int64
	// crc is the CRC32C of the tile's encoded bytes.
	crc uint32
	// codec identifies the payload encoding.
	codec Codec
}

// Options configures a store read handle. The zero value disables both
// caches (every query pays disk IO).
type Options struct {
	// TileCacheBytes bounds the decoded bytes the tile cache may hold at
	// any instant; 0 disables tile caching.
	TileCacheBytes int64
	// RowCacheBytes bounds the bytes held by the assembled-row cache;
	// 0 disables row caching (rows are then assembled per query, and
	// Dist goes through the tile cache instead).
	RowCacheBytes int64
	// ReadRetries is the bounded retry budget for transient disk-read
	// errors: a failing ReadAt is retried up to this many extra times
	// with exponential backoff before the error surfaces. 0 disables
	// retries. Checksum mismatches are never retried (bit rot is not
	// transient); they quarantine the tile instead.
	ReadRetries int
	// RetryBackoff is the initial backoff between read retries, doubling
	// each attempt (default 2ms when ReadRetries > 0).
	RetryBackoff time.Duration
}

// Store is a read handle on a tiled distance store. All methods are safe
// for concurrent use; tiles and row views handed out are shared and must
// be treated as read-only.
type Store struct {
	r         io.ReaderAt
	closer    io.Closer // closed by Close when the store owns the file
	n, b, q   int
	index     []tileRef
	fileBytes int64

	// tileCache holds decoded tiles by index position, rowCache assembled
	// rows by vertex (a zero budget bypasses it: rows are then assembled
	// straight into the caller's buffer).
	tileCache *cache.Sharded[int, *matrix.Block]
	rowCache  *cache.Sharded[int, []float64]

	// rows memoises per-tile verification: non-nil once a whole-tile read
	// of the tile has passed its CRC32C and header checks, and then the
	// table its codec needs to address single rows (see readVerified).
	rows      []atomic.Pointer[rowTable]
	spanReads atomic.Int64

	// quar flags tiles whose bytes failed their checksum (or decoded to
	// the wrong shape): reads of a quarantined tile fail fast with
	// ErrCorruptTile and never touch the disk again.
	quar      []atomic.Bool
	quarCount atomic.Int64

	readRetries  int
	retryBackoff time.Duration
	retriedReads atomic.Int64

	// Codec census, fixed at open: how many tiles use each codec, and the
	// bytes the tiles would occupy raw over the bytes they occupy encoded
	// — the density win the serving tier is getting.
	codecTiles [numCodecs]int64
	codecRatio float64

	// decodeHist times tile and row-segment decodes per codec name (cold
	// reads only; cache hits never decode).
	decodeHist [numCodecs]*obs.Histogram

	// readHook, when set before concurrent use, observes every tile disk
	// read (test seam for the singleflight coalescing tests).
	readHook func(bi, bj int)
}

// ioBufPool recycles the staging buffers of tile and row-span reads; the
// decoded data is always copied out, so the raw bytes never escape.
var ioBufPool = sync.Pool{New: func() any { return new([]byte) }}

func getIOBuf(n int) *[]byte {
	p := ioBufPool.Get().(*[]byte)
	if cap(*p) < n {
		*p = make([]byte, n)
	}
	*p = (*p)[:n]
	return p
}

// errChecksum is the detail of a tile whose bytes do not hash to the
// CRC32C its index entry records.
var errChecksum = errors.New("checksum mismatch")

// checkTile holds b, the bytes ref names, to ref's CRC32C: the one check
// of a whole tile's bytes, read back or copied.
func checkTile(b []byte, ref tileRef) error {
	if got := crc32.Checksum(b, castagnoli); got != ref.crc {
		return fmt.Errorf("%w: %08x, index says %08x", errChecksum, got, ref.crc)
	}
	return nil
}

// readChecked is the one read of a whole tile's bytes: it reads the bytes
// ref names through read into a pooled buffer, which the caller returns to
// ioBufPool, and holds them to checkTile. On failure it keeps no buffer
// and returns the read's error, or checkTile's (errChecksum), for the
// caller to answer in its own way.
func readChecked(read func(p []byte, off int64) (int, error), ref tileRef) (*[]byte, error) {
	bp := getIOBuf(int(ref.length))
	_, err := read(*bp, ref.off)
	if err == nil {
		err = checkTile(*bp, ref)
	}
	if err != nil {
		ioBufPool.Put(bp)
		return nil, err
	}
	return bp, nil
}

// OpenWithOptions opens a store file for querying with explicit cache
// budgets. Each budget is a hard invariant: the bytes cached never exceed
// it at any instant.
func OpenWithOptions(path string, opts Options) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	s, err := open(f, st.Size(), opts)
	if err != nil {
		f.Close()
		return nil, err
	}
	s.closer = f
	return s, nil
}

// OpenReader opens a store from any io.ReaderAt of the given size — the
// seam that lets tests (and fault-injection harnesses like
// internal/faultfs) interpose on the store's disk reads. Close does not
// close r; the caller owns it.
func OpenReader(r io.ReaderAt, size int64, opts Options) (*Store, error) {
	return open(r, size, opts)
}

func open(f io.ReaderAt, size int64, opts Options) (*Store, error) {
	hdr := make([]byte, fileHdrLen)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("%w: header: %w", ErrMalformed, err)
	}
	n, b, q, err := readHeader(hdr)
	if err != nil {
		return nil, err
	}
	// Overflow-safe index-size check: q is up to 2^32-1 straight from the
	// header, so q*q*idxEntryLen can wrap 64-bit int and slip past a naive
	// file-size comparison into a panicking make(). Bound by division
	// instead (q >= 1 here): q*q > maxEntries <=> q > maxEntries/q.
	maxEntries := (size - fileHdrLen) / idxEntryLen
	if maxEntries < 1 || int64(q) > maxEntries/int64(q) {
		return nil, fmt.Errorf("%w: file of %d bytes too small for %dx%d tile index", ErrMalformed, size, q, q)
	}
	idxBuf := make([]byte, int64(q)*int64(q)*idxEntryLen)
	if _, err := f.ReadAt(idxBuf, fileHdrLen); err != nil {
		return nil, fmt.Errorf("%w: tile index: %w", ErrMalformed, err)
	}
	index := make([]tileRef, q*q)
	var codecTiles [numCodecs]int64
	var encodedBytes, rawBytes int64
	next := fileHdrLen + int64(q)*int64(q)*idxEntryLen
	for i := range index {
		ref, raw, err := readEntry(idxBuf[int64(i)*idxEntryLen:], i, n, b, q, next, size)
		if err != nil {
			return nil, err
		}
		index[i], next = ref, ref.off+ref.length
		codecTiles[ref.codec]++
		encodedBytes += ref.length
		rawBytes += raw
	}
	backoff := opts.RetryBackoff
	if backoff <= 0 {
		backoff = 2 * time.Millisecond
	}
	s := &Store{
		r: f, n: n, b: b, q: q, index: index, fileBytes: size,
		tileCache:    cache.New[int](opts.TileCacheBytes, 8*int64(b)*int64(b), (*matrix.Block).SizeBytes),
		rowCache:     cache.New[int](opts.RowCacheBytes, 8*int64(n), func(row []float64) int64 { return 8 * int64(len(row)) }),
		rows:         make([]atomic.Pointer[rowTable], q*q),
		quar:         make([]atomic.Bool, q*q),
		readRetries:  max(opts.ReadRetries, 0),
		retryBackoff: backoff,
		codecTiles:   codecTiles,
		codecRatio:   float64(rawBytes) / float64(encodedBytes),
	}
	for c := range Codec(numCodecs) {
		if checkCodec(c) == nil {
			s.decodeHist[c] = obs.NewHistogram()
		}
	}
	return s, nil
}

// readHeader parses a store's fileHdrLen-byte header into its
// geometry: the magic (else ErrNotAStore), the one version this build
// reads (else ErrVersion), and n, b and q consistent with each other
// (else ErrMalformed).
func readHeader(hdr []byte) (n, b, q int, err error) {
	if string(hdr[:8]) != magic {
		return 0, 0, 0, fmt.Errorf("%w: bad magic %q", ErrNotAStore, hdr[:8])
	}
	if ver := binary.LittleEndian.Uint32(hdr[8:12]); ver != version {
		return 0, 0, 0, fmt.Errorf("%w: version %d, this build reads only version %d", ErrVersion, ver, version)
	}
	n = int(binary.LittleEndian.Uint32(hdr[12:16]))
	b = int(binary.LittleEndian.Uint32(hdr[16:20]))
	q = int(binary.LittleEndian.Uint32(hdr[20:24]))
	if n < 1 || b < 1 || b > n {
		return 0, 0, 0, fmt.Errorf("%w: implausible shape n=%d b=%d", ErrMalformed, n, b)
	}
	if want := (n + b - 1) / b; q != want {
		return 0, 0, 0, fmt.Errorf("%w: header says %d tiles/side, n=%d b=%d implies %d", ErrMalformed, q, n, b, want)
	}
	return n, b, q, nil
}

// readEntry decodes index entry i of a store of geometry (n, b, q) from
// ent and holds it to the format: inside a file of size bytes, a codec
// this build reads (else ErrVersion), a length plausible for that codec
// and the tile's shape, and the offset next at which the tile before it
// ends. It returns the entry and the tile's raw size. Open reads every
// entry through it, and so does a checkpoint's resume.
func readEntry(ent []byte, i, n, b, q int, next, size int64) (tileRef, int64, error) {
	ref := tileRef{
		off:    int64(binary.LittleEndian.Uint64(ent)),
		length: int64(binary.LittleEndian.Uint64(ent[8:])),
		crc:    binary.LittleEndian.Uint32(ent[16:]),
		codec:  Codec(ent[20]),
	}
	if ref.off < fileHdrLen || ref.length < matrix.HeaderLen || ref.off > size-ref.length {
		return ref, 0, fmt.Errorf("%w: tile %d index entry (off=%d len=%d) outside file of %d bytes",
			ErrMalformed, i, ref.off, ref.length, size)
	}
	if err := checkCodec(ref.codec); err != nil {
		return ref, 0, fmt.Errorf("%w (tile %d)", err, i)
	}
	// Tile shapes are fully determined by (n, b), so every raw index
	// length is checkable up front, and a compressed tile must be
	// strictly smaller (the writers' fallback rule).
	raw := matrix.DenseMarshaledSize(tileEdge(n, b, i/q), tileEdge(n, b, i%q))
	if !plausibleTile(ref.codec, ref.length, raw) {
		return ref, 0, fmt.Errorf("%w: tile %d claims codec %s in %d bytes, its raw size is %d",
			ErrMalformed, i, ref.codec.Name(), ref.length, raw)
	}
	// Payloads are contiguous in index order — variable lengths make
	// this the only layout the raw-panel span copy can trust, so it is
	// a format invariant, not a writer convention.
	if ref.off != next {
		return ref, 0, fmt.Errorf("%w: tile %d at offset %d, contiguous layout implies %d", ErrMalformed, i, ref.off, next)
	}
	return ref, raw, nil
}

// Close releases the file handle (when the store owns one) and drops both
// caches.
func (s *Store) Close() error {
	s.tileCache.Purge()
	s.rowCache.Purge()
	if s.closer != nil {
		return s.closer.Close()
	}
	return nil
}

// N returns the number of vertices.
func (s *Store) N() int { return s.n }

// SourceKind labels the store for the serving layer's mode reporting.
func (s *Store) SourceKind() string { return "store" }

// BlockSize returns the tile edge length b.
func (s *Store) BlockSize() int { return s.b }

// TilesPerSide returns q = ceil(n/b).
func (s *Store) TilesPerSide() int { return s.q }

// FileBytes returns the on-disk size of the store.
func (s *Store) FileBytes() int64 { return s.fileBytes }

// TileCodec returns the codec of tile (bi, bj).
func (s *Store) TileCodec(bi, bj int) Codec {
	if bi < 0 || bi >= s.q || bj < 0 || bj >= s.q {
		return CodecRaw
	}
	return s.index[bi*s.q+bj].codec
}

// TileSpan returns the file byte range [off, off+length) of tile
// (bi, bj)'s encoded payload — fault-injection tests use it to corrupt a
// specific tile without assuming fixed tile sizes.
func (s *Store) TileSpan(bi, bj int) (off, length int64, err error) {
	if bi < 0 || bi >= s.q || bj < 0 || bj >= s.q {
		return 0, 0, fmt.Errorf("store: tile (%d,%d) outside %dx%d grid", bi, bj, s.q, s.q)
	}
	ref := s.index[bi*s.q+bj]
	return ref.off, ref.length, nil
}

// PreferredCodec returns the codec most compressed tiles in the store
// use (raw when nothing is compressed) — the codec a rebuild of this
// store should inherit so derived generations keep the density.
func (s *Store) PreferredCodec() Codec {
	best, bestCount := CodecRaw, int64(0)
	for c := Codec(1); c < numCodecs; c++ {
		if s.codecTiles[c] > bestCount {
			best, bestCount = c, s.codecTiles[c]
		}
	}
	return best
}

// readAt is io.ReaderAt's ReadAt on the store's file, retrying transient
// failures within the configured budget with exponential backoff. The
// retry counter is global, not per call: it is a health signal ("this
// disk is flaky"), so it must survive individual successes.
func (s *Store) readAt(p []byte, off int64) (int, error) {
	backoff := s.retryBackoff
	for attempt := 0; ; attempt++ {
		n, err := s.r.ReadAt(p, off)
		if err == nil || attempt >= s.readRetries {
			return n, err
		}
		s.retriedReads.Add(1)
		time.Sleep(backoff)
		backoff *= 2
	}
}

// quarantine flags tile id as corrupt (idempotently) and returns the
// typed error every later read of it will fail fast with.
func (s *Store) quarantine(id, bi, bj int, detail error) error {
	if !s.quar[id].Swap(true) {
		s.quarCount.Add(1)
	}
	return fmt.Errorf("%w: tile (%d,%d): %v", ErrCorruptTile, bi, bj, detail)
}

// Tile returns tile (bi, bj) — an h x w dense block, ragged at the matrix
// edge. The block is shared: callers must neither mutate it nor return it
// to the block arena. A cancelled or expired ctx aborts before the disk
// read of a cache miss; cache hits are served regardless. Concurrent
// misses on the same tile coalesce onto one disk read.
func (s *Store) Tile(ctx context.Context, bi, bj int) (*matrix.Block, error) {
	if bi < 0 || bi >= s.q || bj < 0 || bj >= s.q {
		return nil, fmt.Errorf("store: tile (%d,%d) outside %dx%d grid", bi, bj, s.q, s.q)
	}
	id := bi*s.q + bj
	return s.tileCache.Get(ctx, id, func() (*matrix.Block, error) { return s.readTile(bi, bj, id) })
}

// readVerified is the one gate every byte the store serves passes at
// least once since open: it reads the whole of tile id into a pooled
// buffer (the caller returns it), verifies the CRC32C of the encoded
// bytes and the codec header, and memoises the tile's row table, after
// which readRow serves the tile from small reads. A failure quarantines
// the tile.
func (s *Store) readVerified(id, bi, bj int) (*[]byte, *rowTable, error) {
	ref := s.index[id]
	bp, err := readChecked(s.readAt, ref)
	switch {
	case errors.Is(err, errChecksum):
		return nil, nil, s.quarantine(id, bi, bj, err)
	case err != nil:
		return nil, nil, fmt.Errorf("store: tile (%d,%d): %w", bi, bj, err)
	}
	t, err := ref.codec.rowTable(*bp, tileEdge(s.n, s.b, bi), tileEdge(s.n, s.b, bj))
	if err != nil {
		ioBufPool.Put(bp)
		return nil, nil, s.quarantine(id, bi, bj, err)
	}
	s.rows[id].Store(t)
	return bp, t, nil
}

// readTile fetches and decodes one whole tile from disk. Every decoder
// copies the values out of the pooled staging buffer, so the decoded
// block owns fresh heap memory (it must: cached tiles are shared
// indefinitely).
func (s *Store) readTile(bi, bj, id int) (*matrix.Block, error) {
	if s.quar[id].Load() {
		return nil, fmt.Errorf("%w: tile (%d,%d) is quarantined", ErrCorruptTile, bi, bj)
	}
	if s.readHook != nil {
		s.readHook(bi, bj)
	}
	bp, _, err := s.readVerified(id, bi, bj)
	if err != nil {
		return nil, err
	}
	defer ioBufPool.Put(bp)
	codec := s.index[id].codec
	start := time.Now()
	blk, err := codec.decodeTile(*bp, tileEdge(s.n, s.b, bi), tileEdge(s.n, s.b, bj), true)
	if err != nil {
		return nil, s.quarantine(id, bi, bj, err)
	}
	s.decodeHist[codec].RecordSince(start)
	return blk, nil
}

// readRow decodes row r of tile (bi, bj) into seg (len = tile width)
// without decoding the tile: the codec names the byte span of the payload
// that holds the row and decodes it straight into seg, so q such reads
// assemble a matrix row from q small preads. The first touch of a tile
// reads and verifies all of it instead (readVerified) and serves the span
// from that buffer.
func (s *Store) readRow(bi, bj, r int, seg []float64) error {
	id := bi*s.q + bj
	if s.quar[id].Load() {
		return fmt.Errorf("%w: tile (%d,%d) is quarantined", ErrCorruptTile, bi, bj)
	}
	if s.readHook != nil {
		s.readHook(bi, bj)
	}
	ref := s.index[id]
	codec := ref.codec
	t := s.rows[id].Load()
	var bp *[]byte
	var span []byte
	if t != nil {
		off, n := codec.rowSpan(t, len(seg), r)
		bp = getIOBuf(n)
		if _, err := s.readAt(*bp, ref.off+int64(off)); err != nil {
			ioBufPool.Put(bp)
			return fmt.Errorf("store: tile (%d,%d) row %d: %w", bi, bj, r, err)
		}
		span = *bp
	} else {
		var err error
		if bp, t, err = s.readVerified(id, bi, bj); err != nil {
			return err
		}
		off, n := codec.rowSpan(t, len(seg), r)
		span = (*bp)[off : off+n]
	}
	defer ioBufPool.Put(bp)
	start := time.Now()
	if err := codec.decodeRow(t, span, r, seg); err != nil {
		return s.quarantine(id, bi, bj, err)
	}
	s.decodeHist[codec].RecordSince(start)
	s.spanReads.Add(1)
	return nil
}

// assembleRow fills dst (len n) with row i, taking each segment from the
// tile cache when the tile happens to be resident and from a direct
// row-span read otherwise. It never populates the tile cache: decoding a
// full b x b tile to extract one row would cost b times the work and
// evict genuinely hot tiles.
func (s *Store) assembleRow(ctx context.Context, i int, dst []float64) error {
	bi, r := i/s.b, i%s.b
	for bj := 0; bj < s.q; bj++ {
		w := tileEdge(s.n, s.b, bj)
		seg := dst[bj*s.b : bj*s.b+w]
		if tile, ok := s.tileCache.Peek(bi*s.q + bj); ok {
			copy(seg, tile.Row(r))
			continue
		}
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if err := s.readRow(bi, bj, r, seg); err != nil {
			return err
		}
	}
	return nil
}

// RowView returns vertex i's full distance row as a shared, read-only
// slice: on a row-cache hit no bytes move at all. Callers must not mutate
// the returned slice. Concurrent misses on the same row coalesce onto one
// assembly, so a cold hot-spot row costs one set of span reads however
// many clients stampede it. With row caching disabled the row is freshly
// assembled (and caller-owned).
func (s *Store) RowView(ctx context.Context, i int) ([]float64, error) {
	if err := s.checkVertex(i); err != nil {
		return nil, err
	}
	if s.rowCache.Budget() <= 0 {
		out := make([]float64, s.n)
		if err := s.assembleRow(ctx, i, out); err != nil {
			return nil, err
		}
		return out, nil
	}
	// The leader assembles with a nil (uncancellable) context: coalesced
	// followers with healthy contexts must not fail because the leader's
	// client hung up, and the work left is bounded (q small preads).
	return s.rowCache.Get(ctx, i, func() ([]float64, error) {
		out := make([]float64, s.n)
		if err := s.assembleRow(nil, i, out); err != nil {
			return nil, err
		}
		return out, nil
	})
}

// RowInto fills dst with vertex i's full distance row and returns it,
// reusing dst's backing array when it is large enough — the steady-state
// allocation-free read primitive (a row-cache hit is one lookup plus one
// copy; a miss with row caching off assembles straight into dst).
func (s *Store) RowInto(ctx context.Context, i int, dst []float64) ([]float64, error) {
	if err := s.checkVertex(i); err != nil {
		return nil, err
	}
	if cap(dst) >= s.n {
		dst = dst[:s.n]
	} else {
		dst = make([]float64, s.n)
	}
	if s.rowCache.Budget() <= 0 {
		if err := s.assembleRow(ctx, i, dst); err != nil {
			return nil, err
		}
		return dst, nil
	}
	row, err := s.RowView(ctx, i)
	if err != nil {
		return nil, err
	}
	copy(dst, row)
	return dst, nil
}

// Row returns a fresh, caller-owned copy of the full distance row of
// vertex i. ctx aborts the assembly of a cold row between segment reads.
func (s *Store) Row(ctx context.Context, i int) ([]float64, error) {
	return s.RowInto(ctx, i, nil)
}

// Dist returns the shortest-path distance from i to j (matrix.Inf when no
// path exists). With row caching enabled the query is served through the
// row cache (a hit is one array read; a miss assembles and caches the
// whole source row, q small preads); otherwise it pages the owning tile
// through the tile cache. ctx bounds the IO of a miss either way.
func (s *Store) Dist(ctx context.Context, i, j int) (float64, error) {
	if err := s.checkVertex(i); err != nil {
		return 0, err
	}
	if err := s.checkVertex(j); err != nil {
		return 0, err
	}
	if s.rowCache.Budget() > 0 {
		row, err := s.RowView(ctx, i)
		if err != nil {
			return 0, err
		}
		return row[j], nil
	}
	tile, err := s.Tile(ctx, i/s.b, j/s.b)
	if err != nil {
		return 0, err
	}
	return tile.At(i%s.b, j%s.b), nil
}

func (s *Store) checkVertex(v int) error {
	if v < 0 || v >= s.n {
		return fmt.Errorf("store: vertex %d outside [0,%d)", v, s.n)
	}
	return nil
}
