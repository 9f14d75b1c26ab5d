package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"apspark/internal/matrix"
)

// indexedPanels counts the leading whole panels whose index entries are
// written (a non-zero offset each) in the partial file beside path,
// reading the index by the layout in store.go's package comment: q at
// header bytes [20:24], then q*q entries of 24 bytes, offset first.
func indexedPanels(t *testing.T, path string) int {
	t.Helper()
	buf, err := os.ReadFile(path + ".partial")
	if err != nil {
		t.Fatal(err)
	}
	q := int(binary.LittleEndian.Uint32(buf[20:24]))
	for i := 0; i < q*q; i++ {
		if binary.LittleEndian.Uint64(buf[24+24*i:]) == 0 {
			return i / q
		}
	}
	return q
}

// panelOf cuts row panel bi (height per the writer's geometry) out of m.
func panelOf(t *testing.T, m *matrix.Block, b, bi int) *matrix.Block {
	t.Helper()
	h := tileEdge(m.R, b, bi)
	p := matrix.New(h, m.R)
	if err := m.ExtractInto(p, bi*b, 0); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCheckpointResumeByteIdentical is the store-level half of the
// kill-and-resume acceptance criterion: write part of a store with
// checkpointing, abandon the writer (as a crash would), resume, finish,
// and demand the result is byte-for-byte the uninterrupted Write output.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	for _, tc := range []struct{ n, b, crashAfter int }{
		{100, 32, 2}, // ragged tail, crash mid-run
		{64, 16, 1},  // crash after first panel
		{64, 16, 0},  // "crash" before any durable panel
		{50, 50, 0},  // single panel
		{96, 32, 3},  // crash after the last panel, before Close
	} {
		m := randomDist(tc.n, int64(tc.n+tc.b))
		dir := t.TempDir()
		ref := filepath.Join(dir, "ref.apsp")
		if err := WriteWithCodec(ref, m, tc.b, CodecRaw); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "dist.apsp")

		pw, err := NewPanelWriterWithOptions(path, tc.n, tc.b, PanelWriterOptions{Checkpoint: true})
		if err != nil {
			t.Fatal(err)
		}
		for bi := 0; bi < tc.crashAfter; bi++ {
			if err := pw.WritePanel(panelOf(t, m, pw.BlockSize(), bi)); err != nil {
				t.Fatal(err)
			}
		}
		pw.Abort() // crash stand-in: the checkpoint must survive

		if got := indexedPanels(t, path); got != tc.crashAfter {
			t.Fatalf("n=%d: the partial's index holds %d panels after %d durable ones", tc.n, got, tc.crashAfter)
		}

		rw, err := NewPanelWriterWithOptions(path, tc.n, tc.b, PanelWriterOptions{Resume: true})
		if err != nil {
			t.Fatal(err)
		}
		if rw.NextPanel() != tc.crashAfter {
			t.Fatalf("n=%d: resumed %d panels, want %d", tc.n, rw.NextPanel(), tc.crashAfter)
		}
		for bi := rw.NextPanel(); bi < rw.Panels(); bi++ {
			if err := rw.WritePanel(panelOf(t, m, rw.BlockSize(), bi)); err != nil {
				t.Fatal(err)
			}
		}
		if err := rw.Close(); err != nil {
			t.Fatal(err)
		}

		want, _ := os.ReadFile(ref)
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d b=%d crashAfter=%d: resumed store differs from Write output", tc.n, tc.b, tc.crashAfter)
		}
		if _, err := os.Stat(path + ".partial"); !os.IsNotExist(err) {
			t.Fatalf("n=%d: the partial file outlived Close (stat: %v)", tc.n, err)
		}
		// Same bytes, same permissions: whoever can read a store written
		// in one go can read a checkpointed one.
		refInfo, err := os.Stat(ref)
		if err != nil {
			t.Fatal(err)
		}
		gotInfo, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if refInfo.Mode() != gotInfo.Mode() {
			t.Fatalf("n=%d: Write published mode %v, checkpointed writer %v", tc.n, refInfo.Mode(), gotInfo.Mode())
		}
	}
}

// TestResumeTruncatesTornTail: bytes past the last durable panel (a
// panel the crash tore mid-write) are discarded on resume, not trusted.
func TestResumeTruncatesTornTail(t *testing.T) {
	n, b := 96, 32
	m := randomDist(n, 7)
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.apsp")
	if err := WriteWithCodec(ref, m, b, CodecRaw); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "dist.apsp")
	pw, err := NewPanelWriterWithOptions(path, n, b, PanelWriterOptions{Checkpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := pw.WritePanel(panelOf(t, m, b, 0)); err != nil {
		t.Fatal(err)
	}
	pw.Abort()

	// Simulate a torn second panel: garbage appended past the durable
	// boundary whose index entries were never written.
	f, err := os.OpenFile(path+".partial", os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(bytes.Repeat([]byte{0xAB}, 1000)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rw, err := NewPanelWriterWithOptions(path, n, b, PanelWriterOptions{Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if rw.NextPanel() != 1 {
		t.Fatalf("resumed at panel %d, want 1", rw.NextPanel())
	}
	for bi := 1; bi < rw.Panels(); bi++ {
		if err := rw.WritePanel(panelOf(t, m, b, bi)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	want, _ := os.ReadFile(ref)
	got, _ := os.ReadFile(path)
	if !bytes.Equal(got, want) {
		t.Fatal("store resumed over a torn tail differs from Write output")
	}
}

// TestResumeWithoutCheckpointStartsFresh: -resume on a path with no
// checkpoint behaves like a fresh solve instead of failing, and so does
// one on a partial whose header was written but never synced (zeros: a
// crash before the first panel).
func TestResumeWithoutCheckpointStartsFresh(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dist.apsp")
	for _, partial := range [][]byte{nil, make([]byte, fileHdrLen+4*idxEntryLen+100)} {
		if partial != nil {
			if err := os.WriteFile(path+".partial", partial, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		rw, err := NewPanelWriterWithOptions(path, 50, 25, PanelWriterOptions{Resume: true})
		if err != nil {
			t.Fatal(err)
		}
		rw.Abort()
		if rw.NextPanel() != 0 {
			t.Fatalf("fresh resume starts at panel %d, want 0", rw.NextPanel())
		}
	}
}

// TestResumeRejectsGeometryMismatch: a checkpoint for a different (n, b)
// must not be silently discarded or, worse, appended to.
func TestResumeRejectsGeometryMismatch(t *testing.T) {
	n, b := 96, 32
	m := randomDist(n, 3)
	path := filepath.Join(t.TempDir(), "dist.apsp")
	pw, err := NewPanelWriterWithOptions(path, n, b, PanelWriterOptions{Checkpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := pw.WritePanel(panelOf(t, m, b, 0)); err != nil {
		t.Fatal(err)
	}
	pw.Abort()
	if _, err := NewPanelWriterWithOptions(path, n, 16, PanelWriterOptions{Resume: true}); err == nil {
		t.Fatal("resume accepted a checkpoint with mismatched block size")
	}
	if _, err := NewPanelWriterWithOptions(path, 64, b, PanelWriterOptions{Resume: true}); err == nil {
		t.Fatal("resume accepted a checkpoint with mismatched n")
	}
}

// TestResumeRefusesAForeignPartial: a partial that is not a store of
// this solve's geometry, or holds durable tiles of a codec this solve
// would not write (an f32 checkpoint finished as ivarint, or the other
// way round), is refused and left on disk unchanged. A checkpoint of raw
// tiles only resumes under any codec: raw tiles are exact.
func TestResumeRefusesAForeignPartial(t *testing.T) {
	n, b := 96, 32
	ivarint, f32 := CodecIVarint, CodecF32
	for _, tc := range []struct {
		name          string
		wrote, resume Codec
		spoil         func(buf []byte) // applied to the partial's bytes
	}{
		{name: "not a store", spoil: func(buf []byte) { copy(buf, "NOTASTOR") }},
		{name: "another version", spoil: func(buf []byte) { binary.LittleEndian.PutUint32(buf[8:], 2) }},
		{name: "another n", spoil: func(buf []byte) { binary.LittleEndian.PutUint32(buf[12:], 95) }},
		{name: "ivarint resumed as f32", wrote: ivarint, resume: f32},
		{name: "f32 resumed as ivarint", wrote: f32, resume: ivarint},
		{name: "f32 resumed as raw", wrote: f32},
	} {
		path := filepath.Join(t.TempDir(), "dist.apsp")
		pw, err := NewPanelWriterWithOptions(path, n, b, PanelWriterOptions{Checkpoint: true, Codec: tc.wrote})
		if err != nil {
			t.Fatal(err)
		}
		if err := pw.WritePanel(panelOf(t, intMatrix(n, 9), b, 0)); err != nil {
			t.Fatal(err)
		}
		pw.Abort()
		buf, err := os.ReadFile(path + ".partial")
		if err != nil {
			t.Fatal(err)
		}
		if tc.spoil != nil {
			tc.spoil(buf)
			if err := os.WriteFile(path+".partial", buf, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := NewPanelWriterWithOptions(path, n, b, PanelWriterOptions{Resume: true, Codec: tc.resume}); err == nil {
			t.Errorf("%s: resume accepted the partial", tc.name)
		}
		if kept, err := os.ReadFile(path + ".partial"); err != nil || !bytes.Equal(kept, buf) {
			t.Errorf("%s: the refused partial was not kept as it was (%v)", tc.name, err)
		}
	}

	// Raw tiles only (a matrix ivarint declines), resumed as ivarint: the
	// store holds the same distances, the resumed panels in ivarint.
	m := intMatrix(n, 9)
	m.Data[1] = 0.5
	path := filepath.Join(t.TempDir(), "dist.apsp")
	pw, err := NewPanelWriterWithOptions(path, n, b, PanelWriterOptions{Checkpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := pw.WritePanel(panelOf(t, m, b, 0)); err != nil {
		t.Fatal(err)
	}
	pw.Abort()
	rw, err := NewPanelWriterWithOptions(path, n, b, PanelWriterOptions{Resume: true, Codec: ivarint})
	if err != nil {
		t.Fatal(err)
	}
	for bi := rw.NextPanel(); bi < rw.Panels(); bi++ {
		if err := rw.WritePanel(panelOf(t, m, b, bi)); err != nil {
			t.Fatal(err)
		}
	}
	if rw.NextPanel() != rw.Panels() || rw.Close() != nil {
		t.Fatal("raw checkpoint did not resume to a whole store")
	}
	s, err := OpenWithOptions(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Snapshot().CodecTiles; got["raw"] != 3 || got["ivarint"] != 6 {
		t.Errorf("resumed store's tiles %v, want panel 0 raw and the rest ivarint", got)
	}
	for v := 0; v < n; v++ {
		row, err := s.Row(context.Background(), v)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(row, m.Data[v*n:(v+1)*n]) {
			t.Fatalf("row %d of the resumed store differs from the matrix", v)
		}
	}
}

// TestResumeOverATornIndex tears the last durable panel's index entries
// in the partial, as a crash during its index write could, and holds the
// resume to solving exactly that panel again: the store Close publishes
// is byte-identical to an uninterrupted write, raw and ivarint. So is a
// partial cut inside its last panel's tiles, whose entries then point
// past the file's end.
func TestResumeOverATornIndex(t *testing.T) {
	n, b := 100, 32 // q = 4, ragged
	q := 4
	last := fileHdrLen + q*idxEntryLen // panel 1's entries
	for _, tc := range []struct {
		name string
		tear func(buf []byte) []byte
	}{
		{"half the entries zeroed", func(buf []byte) []byte {
			clear(buf[last+q/2*idxEntryLen : last+q*idxEntryLen])
			return buf
		}},
		{"one CRC flipped", func(buf []byte) []byte {
			buf[last+2*idxEntryLen+16] ^= 0x01
			return buf
		}},
		{"one entry cut mid-way", func(buf []byte) []byte {
			clear(buf[last+(q-1)*idxEntryLen+12 : last+q*idxEntryLen])
			return buf
		}},
		{"tiles cut short", func(buf []byte) []byte {
			return buf[:len(buf)-1]
		}},
	} {
		for _, codec := range []Codec{CodecRaw, CodecIVarint} {
			m := intMatrix(n, 13)
			m.Data[n+2] = 1.5 // a raw tile among the ivarint ones
			dir := t.TempDir()
			ref := filepath.Join(dir, "ref.apsp")
			if err := WriteWithCodec(ref, m, b, codec); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "dist.apsp")
			pw, err := NewPanelWriterWithOptions(path, n, b, PanelWriterOptions{Checkpoint: true, Codec: codec})
			if err != nil {
				t.Fatal(err)
			}
			for bi := 0; bi < 2; bi++ {
				if err := pw.WritePanel(panelOf(t, m, b, bi)); err != nil {
					t.Fatal(err)
				}
			}
			pw.Abort()
			partial := path + ".partial"
			buf, err := os.ReadFile(partial)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(partial, tc.tear(buf), 0o644); err != nil {
				t.Fatal(err)
			}

			rw, err := NewPanelWriterWithOptions(path, n, b, PanelWriterOptions{Resume: true, Codec: codec})
			if err != nil {
				t.Fatalf("%s, %s: %v", tc.name, codec.Name(), err)
			}
			if rw.NextPanel() != 1 {
				t.Fatalf("%s, %s: resumed at panel %d, want 1", tc.name, codec.Name(), rw.NextPanel())
			}
			for bi := 1; bi < rw.Panels(); bi++ {
				if err := rw.WritePanel(panelOf(t, m, b, bi)); err != nil {
					t.Fatal(err)
				}
			}
			if err := rw.Close(); err != nil {
				t.Fatal(err)
			}
			want, _ := os.ReadFile(ref)
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s, %s: store resumed over a torn index differs from an uninterrupted write (%v)", tc.name, codec.Name(), err)
			}
		}
	}
}
