package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"apspark/internal/matrix"
)

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
		if err := WriteWithCodec(ref, m, tc.b, nil); err != nil {
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

		if tc.crashAfter > 0 && !HasCheckpoint(path) {
			t.Fatalf("n=%d: no checkpoint after %d durable panels", tc.n, tc.crashAfter)
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
		if HasCheckpoint(path) {
			t.Fatalf("n=%d: checkpoint artifacts left behind after Close", tc.n)
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
	if err := WriteWithCodec(ref, m, b, nil); err != nil {
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
	// boundary that never made it into a manifest.
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
// checkpoint behaves like a fresh solve instead of failing.
func TestResumeWithoutCheckpointStartsFresh(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dist.apsp")
	rw, err := NewPanelWriterWithOptions(path, 50, 25, PanelWriterOptions{Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Abort()
	if rw.NextPanel() != 0 {
		t.Fatalf("fresh resume starts at panel %d, want 0", rw.NextPanel())
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

// TestResumeRejectsCorruptManifest: a manifest that does not parse (or
// promises more data than the partial file holds) fails loudly.
func TestResumeRejectsCorruptManifest(t *testing.T) {
	n, b := 96, 32
	m := randomDist(n, 5)
	path := filepath.Join(t.TempDir(), "dist.apsp")
	pw, err := NewPanelWriterWithOptions(path, n, b, PanelWriterOptions{Checkpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := pw.WritePanel(panelOf(t, m, b, 0)); err != nil {
		t.Fatal(err)
	}
	pw.Abort()

	if err := os.WriteFile(path+".manifest", []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewPanelWriterWithOptions(path, n, b, PanelWriterOptions{Resume: true}); err == nil {
		t.Fatal("resume accepted an unparsable manifest")
	}

	// Manifest promising 2 durable panels when the partial holds 1.
	pw2, err := NewPanelWriterWithOptions(path, n, b, PanelWriterOptions{Checkpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := pw2.WritePanel(panelOf(t, m, b, 0)); err != nil {
		t.Fatal(err)
	}
	if err := pw2.WritePanel(panelOf(t, m, b, 1)); err != nil {
		t.Fatal(err)
	}
	pw2.Abort()
	mfst, err := os.ReadFile(path + ".manifest")
	if err != nil {
		t.Fatal(err)
	}
	end := int64(fileHdrLen + 9*idxEntryLen) // q=3: truncate to zero panels
	if err := os.Truncate(path+".partial", end); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".manifest", mfst, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewPanelWriterWithOptions(path, n, b, PanelWriterOptions{Resume: true}); err == nil {
		t.Fatal("resume accepted a manifest promising more panels than the partial file holds")
	}
}

// TestRemoveCheckpoint discards the artifacts so the next solve starts
// clean.
func TestRemoveCheckpoint(t *testing.T) {
	n, b := 50, 25
	m := randomDist(n, 11)
	path := filepath.Join(t.TempDir(), "dist.apsp")
	pw, err := NewPanelWriterWithOptions(path, n, b, PanelWriterOptions{Checkpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := pw.WritePanel(panelOf(t, m, b, 0)); err != nil {
		t.Fatal(err)
	}
	pw.Abort()
	if !HasCheckpoint(path) {
		t.Fatal("no checkpoint to remove")
	}
	RemoveCheckpoint(path)
	if HasCheckpoint(path) {
		t.Fatal("checkpoint survived RemoveCheckpoint")
	}
}
