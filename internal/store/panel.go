// Streaming writer: the store file built one row-panel at a time, so a
// solver that produces rows incrementally can persist an n x n matrix
// while holding only O(b·n) of it. A PanelWriter is the sparse engine's
// sparse.Sink: SolveTo takes its panel height (BlockSize) and first panel
// (NextPanel) from it, seeds each panel from the tiles above it read back
// from the file (ReadBack), and hands it every panel through one write
// (WriteCells) in the cell type it chose itself — uint32 cells
// (matrix.NoPath32 for no path) where every distance is an integer,
// float64 otherwise — which names it once (matrix.Panel). Both cell types
// run one panel loop and one encoder per codec, and write the same bytes
// for the same distances. Every codec encodes each tile straight from
// where it lies: a tile right of the panel's diagonal from the panel's
// rows, and a tile left of it — on a seeded panel, which carries the
// tiles above it as it read them back, in lane order — from that tile's
// columns, so nothing is copied or transposed on the way. A generation
// rebuild copies its clean panels in between (WriteRawPanel, from
// SolveTo's Options.Supply).
//
// In checkpoint mode the writer adds a crash-safe discipline: the store
// is written in place at a stable partial file (path + ".partial"), and
// after each panel's tile bytes are fsync'd the panel's q index entries
// are written into the partial's own index region and fsync'd in turn, so
// the partial file is itself a store with a durable prefix of panels and
// there is no second record of what was written. A process killed
// mid-solve can then resume: the partial's header must be the solve's,
// its index is read through Open's per-entry check (readEntry), and the
// longest run of whole panels whose entries pass is durable — the last
// of them held to its tiles' CRCs, since its index write is the only one
// a crash can tear. The file is truncated there and writing continues, so
// only the unfinished panels are ever re-solved. The codecs are
// deterministic, so a resumed store is byte-identical to one written in a
// single uninterrupted run with the same codec.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"

	"apspark/internal/fsx"
	"apspark/internal/matrix"
)

// PanelWriterOptions configures the crash-safety discipline of a
// PanelWriter. The zero value writes an anonymous temp file.
type PanelWriterOptions struct {
	// Checkpoint writes the store in place at a stable partial file
	// (path+".partial") and makes each panel durable — its tiles, then its
	// index entries, fsync'd — before the write returns, at the cost of
	// two fsyncs per panel. Abort then keeps the partial file so a later
	// run can resume.
	Checkpoint bool
	// Resume (implies Checkpoint) picks up an existing partial file: it is
	// truncated to its last durable panel and the writer continues from
	// there. When it holds no durable panel, or does not exist, the writer
	// starts from panel 0. A partial of another geometry (n, blockSize),
	// or with a durable tile whose codec is neither raw nor Codec, is
	// refused and kept: a checkpoint of raw tiles only resumes under any
	// codec, since raw tiles are exact.
	Resume bool
	// Codec is the preferred tile codec; the zero value is raw. Each tile
	// is offered to it and falls back to raw bytes when declined or not
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
	buf       []byte // one panel's encoded tiles
	closed    bool
	failed    bool

	checkpoint bool
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
	} else if err = fsx.CheckTarget(path); err == nil {
		if opts.Resume {
			if err := w.resume(path); err != nil {
				return nil, err
			}
			if w.f != nil {
				return w, nil
			}
			// No durable panel: fall through to a fresh start.
		}
		var f *os.File
		if f, err = os.OpenFile(path+".partial", os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644); err == nil {
			w.f = fsx.Adopt(f, path)
		}
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

// resume restores the writer's state from the partial file a
// checkpointing run left beside path. On success w.f is open and
// positioned at the end of the last durable panel; when there is no
// partial file, or it holds no durable panel, w.f stays nil (fresh
// start). A partial that is not this solve's is an error and stays on
// disk: silently discarding hours of solve work would be worse.
func (w *PanelWriter) resume(path string) error {
	f, err := os.OpenFile(path+".partial", os.O_RDWR, 0)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: opening partial store: %w", err)
	}
	// Drop any torn tail past the last durable panel, then continue
	// appending from exactly that boundary.
	var end int64
	panels, err := w.durablePanels(f)
	if err == nil && panels > 0 {
		end = w.index[panels*w.q-1].off + w.index[panels*w.q-1].length
		if err = f.Truncate(end); err == nil {
			_, err = f.Seek(end, io.SeekStart)
		}
	}
	if err != nil || panels == 0 {
		f.Close()
		return err
	}
	w.f = fsx.Adopt(f, path)
	w.nextPanel = panels
	w.nextOff = end
	return nil
}

// durablePanels reads the partial file f as the store it is becoming,
// restores the index entries of its durable panels into w.index and
// returns how many there are (see the file comment). An all-zero header,
// written but never synced, holds none. Every earlier panel's index was
// fsync'd before the next panel's tiles were written, so only the last
// one's can be torn, and only its tiles are held to their CRCs. An entry
// naming a codec this build does not read (ErrVersion), or one neither
// raw nor the writer's, is an error: with no codec name on record, that
// keeps a lossy f32 checkpoint from being finished exact, or vice versa.
func (w *PanelWriter) durablePanels(f *os.File) (int, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	buf := make([]byte, fileHdrLen+w.q*w.q*idxEntryLen)
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		return 0, err
	}
	if [fileHdrLen]byte(buf) == ([fileHdrLen]byte{}) {
		return 0, nil
	} else if n, b, _, err := readHeader(buf); err != nil || n != w.n || b != w.b {
		if err == nil {
			err = fmt.Errorf("it is for n=%d b=%d, this solve is n=%d b=%d", n, b, w.n, w.b)
		}
		return 0, fmt.Errorf("store: checkpoint %s: %w — remove it to restart", f.Name(), err)
	}
	i, next := 0, int64(len(buf))
	for ; i < w.q*w.q; i++ {
		ref, _, err := readEntry(buf[fileHdrLen+i*idxEntryLen:], i, w.n, w.b, w.q, next, st.Size())
		if errors.Is(err, ErrVersion) {
			return 0, fmt.Errorf("store: checkpoint %s: %w", f.Name(), err)
		}
		if err != nil {
			break
		}
		if ref.codec != CodecRaw && ref.codec != w.codec {
			return 0, fmt.Errorf("store: checkpoint %s holds %s tiles, this solve writes %s — remove it to restart",
				f.Name(), ref.codec.Name(), w.codec.Name())
		}
		w.index[i], next = ref, ref.off+ref.length
	}
	panels := i / w.q // whole panels whose entries pass
	for _, ref := range w.index[max(panels-1, 0)*w.q : panels*w.q] {
		bp, err := readChecked(f.ReadAt, ref)
		if err != nil {
			if errors.Is(err, errChecksum) {
				err = nil // torn: the panel is not durable
			}
			return panels - 1, err
		}
		ioBufPool.Put(bp)
	}
	return panels, nil
}

// checkpointPanel makes panel bi durable in place: its tile bytes are
// fsync'd, then its index entries are written into the partial's own
// index region and fsync'd in turn. A crash between the two syncs leaves
// entries that resume either rejects or holds to the tiles' CRCs, so at
// most this one panel is solved again.
func (w *PanelWriter) checkpointPanel(bi int) error {
	if err := w.f.Sync(); err != nil {
		return err
	}
	if _, err := w.f.WriteAt(indexBytes(w.index[bi*w.q:(bi+1)*w.q]), int64(fileHdrLen+bi*w.q*idxEntryLen)); err != nil {
		return err
	}
	return w.f.Sync()
}

// headerBytes encodes the file header plus tile index. Writers that
// stream tiles first and learn their entries later patch the index region
// afterwards with indexBytes.
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
		out = append(out, byte(ref.codec), 0, 0, 0)
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
	if w.codec == CodecF32 {
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
	bp, err := readChecked(w.f.ReadAt, ref)
	switch {
	case errors.Is(err, errChecksum):
		return fmt.Errorf("%w: tile (%d,%d) reads back with %w", ErrCorruptTile, bi, bj, err)
	case err != nil:
		return fmt.Errorf("store: reading back tile (%d,%d): %w", bi, bj, err)
	}
	defer ioBufPool.Put(bp)
	if err := decodeCells(ref.codec, *bp, h, c, lanes, dst, true); err != nil {
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
// (sparse.Sink). Each of its q tiles is encoded where it lies, uint32 and
// float64 cells alike, through the codec's one encoder (appendCells,
// which also falls back to raw): a tile at the columns from p.From on
// from the panel's rows, and a lower tile (bi, j) of a panel that carries
// them from tile (j, bi) in p.Lower, column by column. Nothing is copied,
// converted or transposed first. The encoded tiles are gathered in one
// buffer and written with a single Write, so the writer's own footprint
// is one encoded panel. The panel is only read, never retained. In
// checkpoint mode the panel is made durable (tiles, then index entries,
// fsync'd) before WriteCells returns. Integer and float64 cells of the
// same distances (NoPath32 as +Inf) write the same bytes.
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
	return w.writePanel(func(dst []byte, c0, c int) ([]byte, Codec) {
		switch {
		case p.Reals != nil:
			return appendCells(dst, w.codec, h, c, func(r int) ([]float64, int) { return p.Reals[r*stride+c0:], 1 })
		case c0 >= p.From:
			return appendCells(dst, w.codec, h, c, func(r int) ([]uint32, int) { return p.Ints[r*stride+c0-p.From:], 1 })
		}
		// Row r of tile (bi, j) is column r of tile (j, bi), b x h.
		tile := p.Lower[c0*h:]
		return appendCells(dst, w.codec, h, c, func(r int) ([]uint32, int) {
			return tile[matrix.LaneIndex(0, r, w.b, h, p.Lanes):], min(p.Lanes, h-r/p.Lanes*p.Lanes)
		})
	})
}

// writePanel is the one panel loop under WriteCells: encode appends tile
// bj of the panel — its c columns from column c0 — to dst and names the
// codec that applies. The tiles are gathered in one buffer, indexed and
// written with one Write.
func (w *PanelWriter) writePanel(encode func(dst []byte, c0, c int) ([]byte, Codec)) error {
	bi := w.nextPanel
	w.buf = w.buf[:0]
	for bj := 0; bj < w.q; bj++ {
		from := len(w.buf)
		var cid Codec
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
	_, err := w.f.Write(w.buf)
	return w.panelWritten(err)
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

// panelWritten settles the panel just appended, whose Write returned
// err. A panel that did not land whole poisons the writer: the index
// already points past it and the file may hold part of it, so retrying
// would append duplicates, and only Abort (or a failing Close) remains in
// this process; in checkpoint mode the partial's index still holds the
// last durable panel, so a fresh process can resume past the failure. A
// panel that did is counted and, in checkpoint mode, made durable before
// the write call returns.
func (w *PanelWriter) panelWritten(err error) error {
	if err == nil {
		w.nextPanel++
		if w.checkpoint {
			err = w.checkpointPanel(w.nextPanel - 1)
		}
	}
	w.failed = err != nil
	return err
}

// plausibleTile reports whether an encoded tile length can belong to the
// (known) codec byte claimed for it: raw tiles at exactly their geometric
// size, compressed tiles strictly smaller (the writers' fallback rule).
func plausibleTile(codec Codec, length, rawSize int64) bool {
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
// the temp (or partial) file to path. After Close (success or not) the
// writer is spent; Abort is a no-op.
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
	return w.f.Commit()
}

// Abort abandons the writer. Without checkpointing it removes the temp
// file; in checkpoint mode the partial file is deliberately kept, so a
// cancelled or crashed solve stays resumable (remove path+".partial" to
// discard it). Safe to call any number of
// times and after Close (where it does nothing), so it can sit in a defer
// alongside the success path.
func (w *PanelWriter) Abort() {
	if !w.closed {
		w.closed = true
		w.f.Abort()
	}
}
