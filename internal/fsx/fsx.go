// Package fsx holds the filesystem durability primitives the rest of the
// repo builds its crash-safety on. Every file the repo publishes (store
// files, checkpoint manifests, hierarchy files, generation CURRENT
// pointers, meta and graph files, graphgen -o) is written through one
// Pending: it appears at its path only on Commit, complete, fsync'd, with
// mode 0644 before umask, and with the rename made durable by an fsync of
// the directory. On POSIX metadata journals a rename is only durable once
// the *directory* holding the entry is synced — fsyncing the file alone
// leaves a window where a crash forgets the rename and a "committed" file
// silently vanishes. Directories (generation promotion) are published
// with RenameDurable, the same rename-then-sync step.
package fsx

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
)

// FsyncDir fsyncs the directory at dir, making previously performed
// renames/creates/unlinks of entries inside it durable. It is best
// effort: some filesystems and OSes refuse to open or sync a directory,
// and by then the entries themselves are in place and the caller can do
// no better.
func FsyncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// RenameDurable renames oldpath to newpath and fsyncs newpath's parent
// directory, so the rename survives a crash that outruns the metadata
// journal.
func RenameDurable(oldpath, newpath string) error {
	if err := os.Rename(oldpath, newpath); err != nil {
		return err
	}
	FsyncDir(filepath.Dir(newpath))
	return nil
}

// Pending is a file that appears at its path only on Commit. Write it
// through the embedded *os.File, then Commit or Abort it; Close belongs to
// those two. A reader, or a crash at any instant, sees the old file at the
// path (or none) or the complete new one, never a torn mix.
type Pending struct {
	*os.File
	path string
	keep bool // Abort leaves the file on disk: an adopted checkpoint
	done bool
}

// Create starts a Pending for path: a new file beside it, named
// .<base>.<random>.tmp and created exclusively with mode 0644.
func Create(path string) (*Pending, error) {
	dir, base := filepath.Split(path)
	name := filepath.Join(dir, fmt.Sprintf(".%s.%016x.tmp", base, rand.Uint64()))
	f, err := os.OpenFile(name, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	return &Pending{File: f, path: path}, nil
}

// Adopt makes the open file f, which its owner keeps at a stable name of
// its own (a checkpoint), the pending content of path. Commit publishes
// it like a created file; Abort closes it and leaves it where it is.
func Adopt(f *os.File, path string) *Pending {
	return &Pending{File: f, path: path, keep: true}
}

// Commit publishes the file at its path: fsync, close, rename, fsync the
// directory. When a step fails the file is closed and removed, and the
// path keeps whatever it held.
func (p *Pending) Commit() error {
	if p.done {
		return fmt.Errorf("fsx: %s already committed or aborted", p.path)
	}
	p.done = true
	name := p.Name()
	err := p.Sync()
	if cerr := p.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = RenameDurable(name, p.path)
	}
	if err != nil {
		os.Remove(name)
	}
	return err
}

// Abort abandons the file: it is closed and, unless adopted, removed. It
// is safe to call any number of times and after Commit, where it does
// nothing, so it can sit in a defer beside the success path.
func (p *Pending) Abort() {
	if p.done {
		return
	}
	p.done = true
	p.Close()
	if !p.keep {
		os.Remove(p.Name())
	}
}
