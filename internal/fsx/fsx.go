// Package fsx holds the filesystem durability primitives the rest of the
// repo builds its crash-safety on. Every file the repo publishes (store
// files, generation CURRENT pointers, meta and graph files, graphgen -o)
// is written through one Pending: it appears at its
// path only on Commit, complete, fsync'd, with mode 0644 before umask,
// and with the rename made durable by an fsync of the directory. A
// Pending replaces only a regular file (or nothing): a directory, device
// or FIFO at the path is refused (CheckTarget), never renamed over. On POSIX metadata journals a rename is only durable once
// the *directory* holding the entry is synced — fsyncing the file alone
// leaves a window where a crash forgets the rename and a "committed" file
// silently vanishes. Directories (generation promotion) are published
// with RenameDurable, the same rename-then-sync step. A Commit returns
// once the rename and its directory are durable; the file it replaced is
// released by a close in the background.
package fsx

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
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
//
// A regular file at newpath is held open across the rename and closed on
// a goroutine of its own, which nothing waits for: the last close of a
// replaced file frees its page cache and blocks, which for a large store
// takes longer than the rename itself, and the caller need not wait for
// it. A crash before that close leaves an orphan inode, which the
// filesystem reclaims.
func RenameDurable(oldpath, newpath string) error {
	replaced := openReplaced(newpath)
	err := os.Rename(oldpath, newpath)
	if err == nil {
		FsyncDir(filepath.Dir(newpath))
	}
	if replaced != nil {
		go replaced.Close()
	}
	return err
}

// openReplaced opens the regular file at path for RenameDurable to hold,
// or returns nil: for anything else at path (a directory is never held),
// and on Windows, where a file held open cannot be renamed over.
// O_NONBLOCK keeps a FIFO that replaced the file since the Lstat from
// blocking the open.
func openReplaced(path string) *os.File {
	if runtime.GOOS == "windows" {
		return nil
	}
	if fi, err := os.Lstat(path); err != nil || !fi.Mode().IsRegular() {
		return nil
	}
	f, err := os.OpenFile(path, os.O_RDONLY|syscall.O_NONBLOCK, 0)
	if err != nil {
		return nil
	}
	return f
}

// CheckTarget refuses a path that exists and is not a regular file once
// symlinks are followed — a directory, a device such as /dev/null, a
// FIFO — so that publishing to it never renames a file over it. A path
// that does not exist, or a symlink to a regular file, passes.
func CheckTarget(path string) error {
	if fi, err := os.Stat(path); err == nil && !fi.Mode().IsRegular() {
		return fmt.Errorf("fsx: %s exists and is not a regular file (%v); refusing to replace it", path, fi.Mode().Type())
	}
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
// .<base>.<random>.tmp and created exclusively with mode 0644. A target
// CheckTarget refuses is refused here, before any file is made.
func Create(path string) (*Pending, error) {
	if err := CheckTarget(path); err != nil {
		return nil, err
	}
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

// Commit publishes the file at its path: check the target (CheckTarget;
// it may have changed since Create), fsync, close, rename, fsync the
// directory. When a step fails the file is closed and removed, and the
// path keeps whatever it held.
func (p *Pending) Commit() error {
	if p.done {
		return fmt.Errorf("fsx: %s already committed or aborted", p.path)
	}
	p.done = true
	name := p.Name()
	err := CheckTarget(p.path)
	if err == nil {
		err = p.Sync()
	}
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
