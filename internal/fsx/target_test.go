//go:build unix

package fsx

import (
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"testing"
)

// mkfifo makes a FIFO at dir/name and returns its path.
func mkfifo(t *testing.T, dir, name string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := syscall.Mkfifo(path, 0o644); err != nil {
		t.Skipf("no FIFOs here: %v", err)
	}
	return path
}

// requireFIFO fails unless path is still a FIFO.
func requireFIFO(t *testing.T, path string) {
	t.Helper()
	if fi, err := os.Lstat(path); err != nil || fi.Mode().Type() != os.ModeNamedPipe {
		t.Fatalf("%s is no longer a FIFO (%v, %v)", path, fi, err)
	}
}

// TestPendingRefusesASpecialTarget: a FIFO at the target, or behind a
// symlink at it, is refused by Create, and by Commit when it appears
// after Create; it stays a FIFO and no temp file is left.
func TestPendingRefusesASpecialTarget(t *testing.T) {
	dir := t.TempDir()
	fifo := mkfifo(t, dir, "fifo")
	link := filepath.Join(dir, "link")
	if err := os.Symlink(fifo, link); err != nil {
		t.Fatal(err)
	}
	for _, target := range []string{fifo, link} {
		if p, err := Create(target); err == nil {
			p.Abort()
			t.Fatalf("Create(%s) accepted a FIFO", target)
		}
	}

	late := filepath.Join(dir, "late")
	p, err := Create(late)
	if err != nil {
		t.Fatal(err)
	}
	mkfifo(t, dir, "late")
	if _, err := p.WriteString("data"); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(); err == nil {
		t.Fatal("Commit renamed a file over a FIFO")
	}
	for _, path := range []string{fifo, late} {
		requireFIFO(t, path)
	}
	if got := names(t, dir); !slices.Equal(got, []string{"fifo", "late", "link"}) {
		t.Fatalf("directory holds %v after the refusals", got)
	}
}

// TestCheckTargetPassesFilesAndAbsentPaths: a regular file, a symlink to
// one and a path that does not exist are all publishable.
func TestCheckTargetPassesFilesAndAbsentPaths(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	link := filepath.Join(dir, "link")
	if err := os.Symlink(file, link); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{file, link, filepath.Join(dir, "absent")} {
		if err := CheckTarget(path); err != nil {
			t.Errorf("CheckTarget(%s): %v", path, err)
		}
	}
}
