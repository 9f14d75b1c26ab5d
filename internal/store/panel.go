// Streaming writer: the store file built one row-panel at a time, so a
// solver that produces rows incrementally can persist an n x n matrix
// while holding only O(b·n) of it. A PanelWriter is the sparse engine's
// sparse.Sink: SolveTo takes its panel height (BlockSize) and first panel
// (NextPanel) from it, seeds each panel from the tiles above it read back
// from the file (ReadBack), and hands it every panel through one write
// (WriteCells) in the cell type it chose itself — uint32 cells
// (matrix.NoPath32 for no path) where every distance is an integer,
// float64 otherwise — which names it once (matrix.Panel). Both cell types
// run one panel loop and write the same bytes for the same distances.
// From integers, ivarint and raw encode each tile straight from where it
// lies: a tile right of the panel's diagonal from the panel's rows, and a
// tile left of it — on a seeded panel, which carries the tiles above it
// as it read them back, in lane order — from that tile's columns, so
// nothing is transposed on the way. Only f32 goes through the writer's one
// float tile. A generation rebuild copies its clean panels in between
// (WriteRawPanel, from SolveTo's Options.Supply).
//
// In checkpoint mode the writer adds a crash-safe discipline: the panel
// data lands in a stable partial file (path + ".partial") and, after each
// panel's bytes are fsync'd, a sidecar manifest (path + ".manifest") is
// atomically rewritten recording how many panels are durable. A process
// killed mid-solve can then resume: the partial file is truncated back to
// the last durable panel boundary and writing continues from there, so
// only the unfinished panels are ever re-solved. Encoded tile lengths
// depend on the data (format v3 compresses per tile), so the manifest
// records each durable tile's length and codec alongside its CRC; the
// resumed writer rebuilds its index from them by contiguity. The codecs
// are deterministic, so a resumed store is byte-identical to one written
// in a single uninterrupted run with the same codec.
package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"slices"

	"apspark/internal/fsx"
	"apspark/internal/matrix"
)

// manifestMagic identifies a PanelWriter checkpoint manifest.
const manifestMagic = "APSPCKPT"

// manifestVersion is the manifest schema version (2 added per-tile
// lengths and codecs for the variable-length v3 store layout; version-1
// manifests predate them and cannot be resumed by this build).
const manifestVersion = 2

// manifest is the JSON sidecar a checkpointing PanelWriter rewrites after
// every durable panel. Panels counts row panels whose tile bytes are
// fsync'd in the partial file; CRCs, Lens and Codecs carry the per-tile
// CRC32C, encoded length and codec byte accumulated so far (q*q entries
// each, row-major; entries past the completed panels are zero and
// ignored on resume — tile offsets are rebuilt from the lengths by
// contiguity). Codec names the writer's preferred codec so a resume with
// a different one is refused instead of silently mixing densities.
type manifest struct {
	Magic   string   `json:"magic"`
	Version int      `json:"version"`
	N       int      `json:"n"`
	B       int      `json:"b"`
	Q       int      `json:"q"`
	Panels  int      `json:"panels"`
	CRCs    []uint32 `json:"crcs"`
	Lens    []int64  `json:"lens"`
	Codecs  []byte   `json:"codecs"`
	Codec   string   `json:"codec"`
}

// PanelWriterOptions configures the crash-safety discipline of a
// PanelWriter. The zero value writes an anonymous temp file.
type PanelWriterOptions struct {
	// Checkpoint writes panels to a stable partial file (path+".partial")
	// and maintains a durable sidecar manifest (path+".manifest") after
	// each panel, at the cost of one fsync per panel. Abort then keeps the
	// partial file and manifest so a later run can resume.
	Checkpoint bool
	// Resume (implies Checkpoint) picks up an existing checkpoint: the
	// partial file is truncated to the last durable panel boundary and the
	// writer continues from there. When no usable checkpoint exists the
	// writer simply starts from panel 0. The checkpoint's geometry and
	// codec must match (n, blockSize, Codec) or the writer refuses to
	// resume.
	Resume bool
	// Codec is the preferred tile codec (nil means raw). Each tile is
	// offered to it and falls back to raw bytes when declined or not
	// smaller, exactly like WriteWithCodec.
	Codec Codec
}

// PanelWriter writes a tiled distance store incrementally from row
// panels: panel bi carries matrix rows [bi*b, bi*b+h) as an h x n dense
// block, delivered in order. The header and a zeroed index are written
// up front and each panel's tiles append sequentially at running
// offsets; the offsets, lengths, checksums and codec bytes learned while
// streaming are patched into the index on Close, producing a file
// byte-identical to WriteWithCodec(path, m, b, codec) for the same
// matrix. The file appears at path only on a successful Close (temp or
// partial file + atomic rename), so readers never see a partial store.
type PanelWriter struct {
	f         *fsx.Pending
	n, b, q   int
	nextPanel int
	index     []tileRef
	nextOff   int64
	codec     Codec
	buf       []byte        // one panel's encoded tiles
	tile      *matrix.Block // the one float tile (floatTile)
	closed    bool
	failed    bool

	checkpoint   bool
	manifestPath string
}

// NewPanelWriterWithOptions creates the file and writes the header and
// tile index for an n x n store with tile edge blockSize (clamped to n),
// under the crash-safety discipline opts selects.
func NewPanelWriterWithOptions(path string, n, blockSize int, opts PanelWriterOptions) (*PanelWriter, error) {
	if n < 1 {
		return nil, fmt.Errorf("store: empty matrix")
	}
	if blockSize < 1 {
		return nil, fmt.Errorf("store: block size %d < 1", blockSize)
	}
	if blockSize > n {
		blockSize = n
	}
	q := (n + blockSize - 1) / blockSize

	w := &PanelWriter{n: n, b: blockSize, q: q, codec: opts.Codec}
	w.index = make([]tileRef, q*q)
	w.nextOff = int64(fileHdrLen + q*q*idxEntryLen)

	var err error
	if w.checkpoint = opts.Checkpoint || opts.Resume; !w.checkpoint {
		w.f, err = fsx.Create(path)
	} else {
		w.manifestPath = path + ".manifest"
		if opts.Resume {
			if err := w.resume(path); err != nil {
				return nil, err
			}
			if w.f != nil {
				return w, nil
			}
			// No usable checkpoint: fall through to a fresh start.
		}
		var f *os.File
		if f, err = os.OpenFile(path+".partial", os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644); err == nil {
			w.f = fsx.Adopt(f, path)
		}
		// A stale manifest from an older run must not outlive its data.
		os.Remove(w.manifestPath)
	}
	if err != nil {
		return nil, err
	}
	if _, err := w.f.Write(headerBytes(n, blockSize, q, w.index)); err != nil {
		w.f.Abort()
		return nil, err
	}
	return w, nil
}

// resume restores the writer's state from an existing checkpoint of the
// store at path. On success w.f is open and positioned at the last
// durable panel boundary; when no checkpoint exists w.f stays nil (fresh
// start). A checkpoint that exists but disagrees with the requested
// geometry or codec, or records a codec byte this build does not read,
// is an error: silently discarding hours of solve work would be worse.
func (w *PanelWriter) resume(path string) error {
	raw, err := os.ReadFile(w.manifestPath)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: reading checkpoint manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("store: checkpoint manifest %s is corrupt: %w", w.manifestPath, err)
	}
	if m.Magic != manifestMagic || m.Version != manifestVersion {
		return fmt.Errorf("store: %s is not a version-%d checkpoint manifest", w.manifestPath, manifestVersion)
	}
	if m.N != w.n || m.B != w.b || m.Q != w.q {
		return fmt.Errorf("store: checkpoint is for n=%d b=%d (q=%d), this solve is n=%d b=%d (q=%d)",
			m.N, m.B, m.Q, w.n, w.b, w.q)
	}
	if m.Panels < 0 || m.Panels > w.q || len(m.CRCs) != w.q*w.q ||
		len(m.Lens) != w.q*w.q || len(m.Codecs) != w.q*w.q {
		return fmt.Errorf("store: checkpoint manifest %s is inconsistent (panels=%d, crcs=%d, lens=%d, codecs=%d)",
			w.manifestPath, m.Panels, len(m.CRCs), len(m.Lens), len(m.Codecs))
	}
	if want := w.codecName(); m.Codec != want {
		return fmt.Errorf("store: checkpoint was written with codec %q, this solve wants %q — remove the checkpoint to restart",
			m.Codec, want)
	}
	// Rebuild the index entries of the durable panels: offsets follow by
	// contiguity from the recorded lengths, exactly the invariant Open
	// enforces on the finished file.
	off := w.nextOff
	for i := 0; i < m.Panels*w.q; i++ {
		bi, bj := i/w.q, i%w.q
		raw := matrix.DenseMarshaledSize(tileEdge(w.n, w.b, bi), tileEdge(w.n, w.b, bj))
		length, codec := m.Lens[i], m.Codecs[i]
		if err := checkCodec(codec); err != nil {
			return fmt.Errorf("store: checkpoint manifest %s tile %d: %w", w.manifestPath, i, err)
		}
		if !plausibleTile(codec, length, raw) {
			return fmt.Errorf("store: checkpoint manifest %s tile %d is implausible (len=%d codec=%d)",
				w.manifestPath, i, length, codec)
		}
		w.index[i] = tileRef{off: off, length: length, crc: m.CRCs[i], codec: codec}
		off += length
	}
	f, err := os.OpenFile(path+".partial", os.O_RDWR, 0)
	if os.IsNotExist(err) {
		// Manifest without data: treat as no checkpoint.
		os.Remove(w.manifestPath)
		w.index = make([]tileRef, w.q*w.q)
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: opening partial store: %w", err)
	}
	end := w.panelEnd(m.Panels)
	st, err := f.Stat()
	if err == nil && st.Size() < end {
		err = fmt.Errorf("store: partial store is %d bytes, manifest's %d panels need %d", st.Size(), m.Panels, end)
	}
	// Drop any torn tail past the last durable panel, then continue
	// appending from exactly that boundary.
	if err == nil {
		err = f.Truncate(end)
	}
	if err == nil {
		_, err = f.Seek(end, 0)
	}
	if err != nil {
		f.Close()
		return err
	}
	w.f = fsx.Adopt(f, path)
	w.nextPanel = m.Panels
	w.nextOff = end
	return nil
}

// codecName returns the writer's preferred codec name ("raw" when none
// is configured) for the checkpoint manifest.
func (w *PanelWriter) codecName() string {
	if w.codec == nil {
		return codecs[CodecRaw].Name()
	}
	return w.codec.Name()
}

// panelEnd returns the file offset one past the last tile of panel p-1 —
// the boundary writing resumes from after p durable panels.
func (w *PanelWriter) panelEnd(p int) int64 {
	if p == 0 {
		return int64(fileHdrLen + w.q*w.q*idxEntryLen)
	}
	last := w.index[p*w.q-1]
	return last.off + last.length
}

// checkpointPanel makes the panels written so far durable: the data file
// is fsync'd, then the manifest is atomically and durably replaced. Only
// after both steps is the new panel considered resumable — a crash
// between them resumes from the previous manifest, re-solving one panel.
func (w *PanelWriter) checkpointPanel() error {
	if err := w.f.Sync(); err != nil {
		return err
	}
	m := manifest{
		Magic:   manifestMagic,
		Version: manifestVersion,
		N:       w.n, B: w.b, Q: w.q,
		Panels: w.nextPanel,
		CRCs:   make([]uint32, w.q*w.q),
		Lens:   make([]int64, w.q*w.q),
		Codecs: make([]byte, w.q*w.q),
		Codec:  w.codecName(),
	}
	for i := range w.index {
		m.CRCs[i] = w.index[i].crc
		m.Lens[i] = w.index[i].length
		m.Codecs[i] = w.index[i].codec
	}
	raw, err := json.Marshal(&m)
	if err != nil {
		return err
	}
	mf, err := fsx.Create(w.manifestPath)
	if err != nil {
		return err
	}
	defer mf.Abort()
	if _, err := mf.Write(raw); err != nil {
		return err
	}
	return mf.Commit()
}

// headerBytes encodes the file header plus tile index. Index entries carry whatever checksums are present in index;
// writers that stream tiles first and learn checksums later patch the
// index region afterwards with indexBytes.
func headerBytes(n, blockSize, q int, index []tileRef) []byte {
	hdr := make([]byte, 0, fileHdrLen+len(index)*idxEntryLen)
	hdr = append(hdr, magic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, version)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(n))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(blockSize))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(q))
	return append(hdr, indexBytes(index)...)
}

// indexBytes encodes the tile index region (v3: 24-byte entries with
// per-tile CRC32C and codec byte), as written at fileHdrLen.
func indexBytes(index []tileRef) []byte {
	out := make([]byte, 0, len(index)*idxEntryLen)
	for _, ref := range index {
		out = binary.LittleEndian.AppendUint64(out, uint64(ref.off))
		out = binary.LittleEndian.AppendUint64(out, uint64(ref.length))
		out = binary.LittleEndian.AppendUint32(out, ref.crc)
		out = append(out, ref.codec, 0, 0, 0)
	}
	return out
}

// BlockSize returns the effective tile edge (after clamping to n) — the
// height every panel except possibly the last must have.
func (w *PanelWriter) BlockSize() int { return w.b }

// Panels returns how many panels a full matrix needs (q = ceil(n/b)).
func (w *PanelWriter) Panels() int { return w.q }

// NextPanel returns the index of the panel the writer expects next; on a
// writer just created this is the number of durable panels restored from
// a checkpoint (0 on a fresh run), so a solve can skip their rows.
func (w *PanelWriter) NextPanel() int { return w.nextPanel }

// ReadBack returns how a sparse solve seeds a panel from the tiles above
// it (sparse.Sink): readIntTile, or nil when the writer's codec is the
// lossy f32, whose tiles do not decode back to the distances written.
func (w *PanelWriter) ReadBack() func(bi, bj, lanes int, dst []uint32) error {
	if w.codec != nil && w.codec.ID() == CodecF32 {
		return nil
	}
	return w.readIntTile
}

// readIntTile fills dst with tile (bi, bj) of a panel already written —
// by this writer or by the run it resumed — as h x w uint32 cells in lane
// order of lanes-wide groups (matrix.LaneIndex), matrix.NoPath32 for no
// path. The bytes are read back from the file and held to the CRC32C the
// tile's index entry records, so a tile changed on disk after it was
// written — a flipped bit in a resumed .partial — fails with
// ErrCorruptTile instead of seeding wrong distances. It may run on several
// goroutines at once and beside the call writing the next panel, but only
// for tiles of panels whose write has returned.
func (w *PanelWriter) readIntTile(bi, bj, lanes int, dst []uint32) error {
	if bi < 0 || bi >= w.q || bj < 0 || bj >= w.q {
		return fmt.Errorf("store: tile (%d,%d) outside %dx%d grid", bi, bj, w.q, w.q)
	}
	h, c := tileEdge(w.n, w.b, bi), tileEdge(w.n, w.b, bj)
	if len(dst) != h*c || lanes < 1 {
		return fmt.Errorf("store: tile (%d,%d) is %dx%d, not %d cells in lanes of %d", bi, bj, h, c, len(dst), lanes)
	}
	ref := w.index[bi*w.q+bj]
	bp := getIOBuf(int(ref.length))
	defer ioBufPool.Put(bp)
	if _, err := w.f.ReadAt(*bp, ref.off); err != nil {
		return fmt.Errorf("store: reading back tile (%d,%d): %w", bi, bj, err)
	}
	if got := crc32.Checksum(*bp, castagnoli); got != ref.crc {
		return fmt.Errorf("%w: tile (%d,%d) reads back with checksum %08x, index says %08x", ErrCorruptTile, bi, bj, got, ref.crc)
	}
	if err := decodeIntTile(ref.codec, *bp, h, c, lanes, dst); err != nil {
		return fmt.Errorf("%w: tile (%d,%d): %w", ErrCorruptTile, bi, bj, err)
	}
	return nil
}

// WritePanel appends the next row panel: a dense h x n block of float64
// rows, matrix.Inf for no path, holding matrix rows [bi·b, bi·b+h) where
// bi panels have been written so far and h = b except for a ragged final
// panel. It is WriteCells of those rows.
func (w *PanelWriter) WritePanel(rows *matrix.Block) error {
	if err := w.expectPanel(); err != nil {
		return err
	}
	if rows == nil || rows.Phantom() {
		return fmt.Errorf("store: need a dense row panel")
	}
	if h := tileEdge(w.n, w.b, w.nextPanel); rows.R != h || rows.C != w.n {
		return fmt.Errorf("store: panel %d is %dx%d, want %dx%d", w.nextPanel, rows.R, rows.C, h, w.n)
	}
	return w.WriteCells(matrix.Panel{Reals: rows.Data[:rows.R*rows.C]})
}

// WriteCells appends the next row panel, p (matrix.Panel), holding matrix
// rows [bi·b, bi·b+h) where bi panels have been written so far and h = b
// except for a ragged final panel: the sparse engine's one panel write
// (sparse.Sink). Each of its q tiles is encoded where it lies: a tile at
// the columns from p.From on from the panel's rows, and a lower tile
// (bi, j) of a panel that carries them from tile (j, bi) in p.Lower,
// column by column — nothing is transposed first. Integer cells go
// straight into ivarint and raw (also what a tile ivarint declines is
// stored as) with no float in between; f32, and float64 cells, go through
// the writer's one float tile. The encoded tiles are gathered in one
// buffer and written with a single Write, so the writer's own footprint
// is a tile plus one encoded panel. The panel is only read, never
// retained. In checkpoint mode the panel is made durable (data fsync +
// manifest update) before WriteCells returns. Integer and float64 cells
// of the same distances (NoPath32 as +Inf) write the same bytes.
func (w *PanelWriter) WriteCells(p matrix.Panel) error {
	if err := w.expectPanel(); err != nil {
		return err
	}
	base, h := w.nextPanel*w.b, tileEdge(w.n, w.b, w.nextPanel)
	switch {
	case (p.Ints == nil) == (p.Reals == nil):
		return fmt.Errorf("store: panel %d needs exactly one of integer and float cells", w.nextPanel)
	case p.From != 0 && (p.From != base || p.Ints == nil || len(p.Lower) != base*h || p.Lanes < 1):
		return fmt.Errorf("store: panel %d from column %d (%d lower cells in lanes of %d), want from 0 or %d with %d integer lower cells",
			w.nextPanel, p.From, len(p.Lower), p.Lanes, base, base*h)
	case len(p.Ints)+len(p.Reals) != h*(w.n-p.From):
		return fmt.Errorf("store: panel %d has %d cells from column %d, want %dx%d", w.nextPanel, len(p.Ints)+len(p.Reals), p.From, h, w.n-p.From)
	}
	stride := w.n - p.From
	return w.writePanel(func(dst []byte, c0, c int) ([]byte, byte) {
		if p.Reals != nil {
			tile := w.floatTile(h, c)
			for r := 0; r < h; r++ {
				copy(tile.Data[r*c:(r+1)*c], p.Reals[r*stride+c0:])
			}
			return encodeTile(w.codec, tile, dst)
		}
		row := func(r int) ([]uint32, int) { return p.Ints[r*stride+c0-p.From:], 1 }
		if c0 < p.From {
			// Row r of tile (bi, j) is column r of tile (j, bi), b x h.
			tile := p.Lower[c0*h:]
			row = func(r int) ([]uint32, int) {
				return tile[matrix.LaneIndex(0, r, w.b, h, p.Lanes):], min(p.Lanes, h-r/p.Lanes*p.Lanes)
			}
		}
		switch codec := w.codec.(type) {
		case ivarintCodec:
			if out, ok := codec.appendInts(dst, h, c, row); ok {
				return out, CodecIVarint
			}
		case nil, rawCodec:
		default:
			tile := w.floatTile(h, c)
			for r := 0; r < h; r++ {
				cells, step := row(r)
				for j := range tile.Data[r*c : (r+1)*c] {
					tile.Data[r*c+j] = matrix.Recast[float64](cells[j*step])
				}
			}
			return encodeTile(w.codec, tile, dst)
		}
		return appendRawInts(dst, h, c, row), CodecRaw
	})
}

// floatTile returns the writer's one float tile, shaped h x c, allocated
// by the first panel that needs it.
func (w *PanelWriter) floatTile(h, c int) *matrix.Block {
	if w.tile == nil {
		w.tile = &matrix.Block{Data: make([]float64, w.b*w.b)}
	}
	w.tile.R, w.tile.C, w.tile.Data = h, c, w.tile.Data[:h*c]
	return w.tile
}

// writePanel is the one panel loop under WriteCells: encode appends tile
// bj of the panel — its c columns from column c0 — to dst and names the
// codec that applies. The tiles are gathered in one buffer, indexed and
// written with one Write.
func (w *PanelWriter) writePanel(encode func(dst []byte, c0, c int) ([]byte, byte)) error {
	bi := w.nextPanel
	w.buf = w.buf[:0]
	for bj := 0; bj < w.q; bj++ {
		from := len(w.buf)
		var cid byte
		w.buf, cid = encode(w.buf, bj*w.b, tileEdge(w.n, w.b, bj))
		w.index[bi*w.q+bj] = tileRef{
			off: w.nextOff, length: int64(len(w.buf) - from),
			crc:   crc32.Checksum(w.buf[from:], castagnoli),
			codec: cid,
		}
		w.nextOff += int64(len(w.buf) - from)
		if bj == 0 {
			// A panel's tiles encode to similar lengths: size the buffer
			// from the first instead of doubling up to a whole panel.
			w.buf = slices.Grow(w.buf, (w.q-1)*len(w.buf)*9/8)
		}
	}
	if _, err := w.f.Write(w.buf); err != nil {
		return w.fail(err)
	}
	return w.panelWritten()
}

// fail poisons the writer after a panel that did not land whole: the
// index already points past it and the file may hold part of it, so
// retrying would append duplicates. Only Abort (or a failing Close)
// remains in this process. In checkpoint mode the manifest still records
// the last fully durable panel, so a fresh process can resume past the
// failure.
func (w *PanelWriter) fail(err error) error {
	w.failed = true
	return err
}

// expectPanel refuses a panel the writer cannot take any more.
func (w *PanelWriter) expectPanel() error {
	switch {
	case w.closed:
		return fmt.Errorf("store: panel written to a closed writer")
	case w.failed:
		return fmt.Errorf("store: writer failed on an earlier panel; the partial file cannot be completed")
	case w.nextPanel >= w.q:
		return fmt.Errorf("store: all %d panels already written", w.q)
	}
	return nil
}

// panelWritten counts the panel just appended and, in checkpoint mode,
// makes it durable before the write call returns.
func (w *PanelWriter) panelWritten() error {
	w.nextPanel++
	if w.checkpoint {
		if err := w.checkpointPanel(); err != nil {
			w.failed = true
			return err
		}
	}
	return nil
}

// plausibleTile reports whether an encoded tile length can belong to the
// (known) codec byte claimed for it: raw tiles at exactly their geometric
// size, compressed tiles strictly smaller (the writers' fallback rule).
func plausibleTile(codec byte, length, rawSize int64) bool {
	if length < matrix.HeaderLen {
		return false
	}
	if codec == CodecRaw {
		return length == rawSize
	}
	return length < rawSize
}

// Close finalizes the store: it fails unless every panel has been
// written, then patches the per-tile checksums into the index and commits
// the temp (or partial) file to path. Once the partial file is committed,
// or removed by a failed commit, the checkpoint manifest goes too. After
// Close (success or not) the writer is spent; Abort is a no-op.
func (w *PanelWriter) Close() error {
	if w.closed {
		return fmt.Errorf("store: writer already closed")
	}
	if w.failed {
		w.Abort()
		return fmt.Errorf("store: writer failed on panel %d; store discarded", w.nextPanel)
	}
	if w.nextPanel < w.q {
		w.Abort()
		return fmt.Errorf("store: only %d of %d panels written", w.nextPanel, w.q)
	}
	w.closed = true
	if _, err := w.f.WriteAt(indexBytes(w.index), fileHdrLen); err != nil {
		w.f.Abort()
		return err
	}
	err := w.f.Commit()
	if w.checkpoint {
		os.Remove(w.manifestPath)
	}
	return err
}

// Abort abandons the writer. Without checkpointing it removes the temp
// file; in checkpoint mode the partial file and manifest are deliberately
// kept, so a cancelled or crashed solve stays resumable (use
// RemoveCheckpoint to discard one explicitly). Safe to call any number of
// times and after Close (where it does nothing), so it can sit in a defer
// alongside the success path.
func (w *PanelWriter) Abort() {
	if !w.closed {
		w.closed = true
		w.f.Abort()
	}
}

// RemoveCheckpoint deletes any partial file and manifest a checkpointing
// solve left next to path. Call it to discard an unwanted resume point.
func RemoveCheckpoint(path string) {
	os.Remove(path + ".partial")
	os.Remove(path + ".manifest")
}

// HasCheckpoint reports whether a resumable checkpoint (manifest +
// partial file) exists next to path.
func HasCheckpoint(path string) bool {
	if _, err := os.Stat(path + ".manifest"); err != nil {
		return false
	}
	_, err := os.Stat(path + ".partial")
	return err == nil
}
