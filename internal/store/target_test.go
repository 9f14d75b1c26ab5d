//go:build unix

package store

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestPanelWriterRefusesASpecialTarget: a FIFO at the store path is
// refused by every writer mode before anything is written — no temp file
// and no partial beside it — and stays a FIFO.
func TestPanelWriterRefusesASpecialTarget(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "d.apsp")
	if err := syscall.Mkfifo(path, 0o644); err != nil {
		t.Skipf("no FIFOs here: %v", err)
	}
	for _, opts := range []PanelWriterOptions{{}, {Checkpoint: true}, {Resume: true}} {
		if w, err := NewPanelWriterWithOptions(path, 32, 16, opts); err == nil {
			w.Abort()
			t.Errorf("writer %+v accepted a FIFO as its store path", opts)
		}
	}
	if fi, err := os.Lstat(path); err != nil || fi.Mode().Type() != os.ModeNamedPipe {
		t.Fatalf("the store path is no longer a FIFO (%v, %v)", fi, err)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 1 {
		t.Fatalf("directory holds %v (%v), want the FIFO alone", ents, err)
	}
}
