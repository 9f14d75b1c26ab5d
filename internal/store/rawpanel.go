// Raw row-panel transfer between stores: the generation updater copies
// the panels an edge-delta batch did not dirty straight from the parent
// store's file into the candidate store, byte-for-byte, without decoding
// a single tile. Tile payloads are laid out contiguously in index order
// (a format invariant Open enforces), so panel bi is always one
// contiguous byte span whatever mix of codecs its tiles use, and a
// verified raw copy is both the fastest and the safest way to carry
// clean rows across generations: every tile's CRC32C is checked on the
// way out of the parent and again on the way into the candidate, so a
// torn copy can never be published. The per-tile metadata (length, CRC,
// codec) rides alongside the bytes, which is how a compressed parent's
// density survives into the child for free.
package store

import (
	"fmt"
	"hash/crc32"

	"apspark/internal/matrix"
)

// TileMeta describes one encoded tile inside a raw panel span: its
// encoded length, the CRC32C of those bytes, and the codec that produced
// them. ReadPanelRaw emits one per tile; WriteRawPanel verifies and
// records them in the destination index.
type TileMeta struct {
	Length int64
	CRC    uint32
	Codec  byte
}

// ReadPanelRaw reads row panel bi (all q tiles of tile-row bi) as one
// contiguous encoded byte span, reusing buf's backing array when it is
// large enough, and returns the per-tile metadata (length, CRC32C,
// codec) alongside. Every tile is verified against its index checksum
// before the bytes are handed out; a mismatch quarantines the tile and
// returns ErrCorruptTile, so corruption in the parent store surfaces
// here instead of being propagated into a copy.
func (s *Store) ReadPanelRaw(bi int, buf []byte) ([]byte, []TileMeta, error) {
	if bi < 0 || bi >= s.q {
		return nil, nil, fmt.Errorf("store: panel %d outside [0,%d)", bi, s.q)
	}
	first := s.index[bi*s.q]
	last := s.index[bi*s.q+s.q-1]
	span := last.off + last.length - first.off
	if span <= 0 {
		return nil, nil, fmt.Errorf("%w: panel %d spans %d bytes", ErrMalformed, bi, span)
	}
	if int64(cap(buf)) >= span {
		buf = buf[:span]
	} else {
		buf = make([]byte, span)
	}
	if err := s.readAt(buf, first.off); err != nil {
		return nil, nil, fmt.Errorf("store: panel %d read: %w", bi, err)
	}
	metas := make([]TileMeta, s.q)
	for bj := 0; bj < s.q; bj++ {
		id := bi*s.q + bj
		ref := s.index[id]
		lo := ref.off - first.off
		if lo < 0 || lo+ref.length > span {
			return nil, nil, fmt.Errorf("%w: panel %d tile %d outside its panel span", ErrMalformed, bi, bj)
		}
		got := crc32.Checksum(buf[lo:lo+ref.length], castagnoli)
		if got != ref.crc {
			return nil, nil, s.quarantine(id, bi, bj, fmt.Errorf("crc %08x, index says %08x", got, ref.crc))
		}
		metas[bj] = TileMeta{Length: ref.length, CRC: got, Codec: ref.codec}
	}
	return buf, metas, nil
}

// WriteRawPanel appends the next row panel from its encoded bytes, as
// produced by ReadPanelRaw on a store of identical geometry. The span
// length must match the metadata's tile lengths exactly, every tile's
// metadata must satisfy the format invariants (a codec this build reads,
// else ErrVersion; raw tiles at their geometric size, compressed tiles
// strictly smaller), and every tile's bytes must hash to the
// caller-supplied CRC32C — the copy-integrity gate that keeps a bit
// flipped in transit out of the new store. In checkpoint mode the panel is made durable before returning,
// exactly like WritePanel.
func (w *PanelWriter) WriteRawPanel(raw []byte, metas []TileMeta) error {
	if err := w.expectPanel(); err != nil {
		return err
	}
	if len(metas) != w.q {
		return fmt.Errorf("store: panel %d raw write carries %d tile metas, want %d", w.nextPanel, len(metas), w.q)
	}
	bi := w.nextPanel
	h := tileEdge(w.n, w.b, bi)
	var want int64
	for bj, m := range metas {
		if err := checkCodec(m.Codec); err != nil {
			return fmt.Errorf("store: panel %d tile %d: %w", bi, bj, err)
		}
		rawSize := matrix.DenseMarshaledSize(h, tileEdge(w.n, w.b, bj))
		if !plausibleTile(m.Codec, m.Length, rawSize) {
			return fmt.Errorf("store: panel %d tile %d meta is implausible (len=%d codec=%d, raw size %d)",
				bi, bj, m.Length, m.Codec, rawSize)
		}
		want += m.Length
	}
	if int64(len(raw)) != want {
		return fmt.Errorf("store: panel %d raw span is %d bytes, its tile metas imply %d", bi, len(raw), want)
	}
	var off int64
	for bj, m := range metas {
		if got := crc32.Checksum(raw[off:off+m.Length], castagnoli); got != m.CRC {
			return fmt.Errorf("store: panel %d tile %d bytes hash to %08x, caller says %08x (torn copy?)", bi, bj, got, m.CRC)
		}
		w.index[bi*w.q+bj] = tileRef{off: w.nextOff + off, length: m.Length, crc: m.CRC, codec: m.Codec}
		off += m.Length
	}
	if _, err := w.f.Write(raw); err != nil {
		w.failed = true
		return err
	}
	w.nextOff += want
	return w.panelWritten()
}

// panelRows returns the first matrix row and the height of row panel bi
// for an n x b geometry.
func panelRows(n, b, bi int) (base, h int) {
	return bi * b, tileEdge(n, b, bi)
}
