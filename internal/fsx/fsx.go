// Package fsx holds the small filesystem durability primitives the rest
// of the repo builds its crash-safety on: fsync-the-parent-directory
// after a rename, and the full temp+fsync+rename+dir-fsync atomic-write
// idiom. On POSIX metadata journals, a rename is only durable once the
// *directory* holding the entry is synced — fsyncing the file alone
// leaves a window where a crash forgets the rename and a "committed"
// file silently vanishes. Every temp+rename site in the repo (store
// files, checkpoint manifests, graphgen -o, generation CURRENT pointers)
// funnels through these helpers so that window is closed everywhere at
// once.
package fsx

import (
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
)

// FsyncDir fsyncs the directory at dir, making previously performed
// renames/creates/unlinks of entries inside it durable. On platforms
// where directories cannot be opened or synced (the open or sync fails
// with a permission/unsupported error), the error is swallowed: the
// rename itself already succeeded and the caller can do no better.
func FsyncDir(dir string) error {
	if dir == "" {
		dir = "."
	}
	d, err := os.Open(dir)
	if err != nil {
		return nil // can't open the dir: nothing more we can do
	}
	err = d.Sync()
	d.Close()
	if err != nil {
		// Some filesystems (and some OSes) refuse fsync on directories;
		// the data files themselves are already synced, so treat this as
		// best-effort rather than failing a completed write.
		return nil
	}
	return nil
}

// RenameDurable renames oldpath to newpath and fsyncs newpath's parent
// directory, so the rename survives a crash that outruns the metadata
// journal.
func RenameDurable(oldpath, newpath string) error {
	if err := os.Rename(oldpath, newpath); err != nil {
		return err
	}
	return FsyncDir(filepath.Dir(newpath))
}

// CreateExclusive creates and opens read-write a new file in dir named
// prefix plus a random suffix — the temp half of a temp+rename publish.
// Unlike os.CreateTemp, which creates 0600, the file gets the 0644-
// before-umask every published artefact carries, so renaming it into
// place needs no chmod.
func CreateExclusive(dir, prefix string) (*os.File, error) {
	name := filepath.Join(dir, fmt.Sprintf("%s%016x", prefix, rand.Uint64()))
	return os.OpenFile(name, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
}

// WriteFileDurable atomically replaces path with data: temp file in the
// same directory, write, fsync, rename over path, fsync the directory.
// A reader (or a crash) at any instant sees either the old file or the
// complete new one — never a torn mix.
func WriteFileDurable(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer os.Remove(tmp) // no-op after a successful rename
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Chmod(perm); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return RenameDurable(tmp, path)
}

// CopyFileDurable copies src to dst (replacing it atomically via a temp
// file in dst's directory) and makes the result durable: file fsync plus
// parent-directory fsync.
func CopyFileDurable(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	dir := filepath.Dir(dst)
	out, err := os.CreateTemp(dir, "."+filepath.Base(dst)+".tmp*")
	if err != nil {
		return err
	}
	tmp := out.Name()
	defer os.Remove(tmp)
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	return RenameDurable(tmp, dst)
}
