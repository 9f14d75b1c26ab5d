package fsx

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// names lists dir's entries.
func names(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		out = append(out, e.Name())
	}
	return out
}

// publish writes data to path through a Pending and commits it.
func publish(path string, data []byte) error {
	f, err := Create(path)
	if err != nil {
		return err
	}
	defer f.Abort()
	if _, err := f.Write(data); err != nil {
		return err
	}
	return f.Commit()
}

func TestPendingCommitReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "CURRENT")
	if err := publish(path, []byte("gen-0001\n")); err != nil {
		t.Fatal(err)
	}
	f, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("gen-0002\n"); err != nil {
		t.Fatal(err)
	}
	// Until Commit the path holds the old file, complete.
	if got, _ := os.ReadFile(path); string(got) != "gen-0001\n" {
		t.Fatalf("CURRENT before commit = %q, want gen-0001", got)
	}
	if err := f.Commit(); err != nil {
		t.Fatal(err)
	}
	f.Abort() // a no-op after Commit
	if got, _ := os.ReadFile(path); string(got) != "gen-0002\n" {
		t.Fatalf("CURRENT = %q, want gen-0002", got)
	}
	if err := f.Commit(); err == nil {
		t.Fatal("second Commit succeeded")
	}
	if got := names(t, dir); !slices.Equal(got, []string{"CURRENT"}) {
		t.Fatalf("directory holds %v after two commits, want CURRENT alone", got)
	}
}

func TestPendingAbort(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out")
	f, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	f.Abort()
	f.Abort()
	if got := names(t, dir); len(got) != 0 {
		t.Fatalf("aborted file left %v", got)
	}

	// An adopted file belongs to its owner: Abort closes it, leaves it.
	partial := path + ".partial"
	pf, err := os.Create(partial)
	if err != nil {
		t.Fatal(err)
	}
	Adopt(pf, path).Abort()
	if got := names(t, dir); !slices.Equal(got, []string{"out.partial"}) {
		t.Fatalf("adopted file after Abort: directory holds %v", got)
	}
	if _, err := pf.Write([]byte("x")); err == nil {
		t.Fatal("adopted file still open after Abort")
	}

	// Committed, it is published under the target name.
	pf, err = os.OpenFile(partial, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := Adopt(pf, path).Commit(); err != nil {
		t.Fatal(err)
	}
	if got := names(t, dir); !slices.Equal(got, []string{"out"}) {
		t.Fatalf("adopted file after Commit: directory holds %v", got)
	}
}

// TestPendingFailedCommitCleansUp: a rename onto a non-empty directory
// fails; the target keeps what it held and the temp file is gone.
func TestPendingFailedCommitCleansUp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "target")
	if err := os.MkdirAll(filepath.Join(path, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := publish(path, []byte("data")); err == nil {
		t.Fatal("commit onto a non-empty directory succeeded")
	}
	if got := names(t, dir); !slices.Equal(got, []string{"target"}) {
		t.Fatalf("directory holds %v after a failed commit, want target alone", got)
	}
	if got := names(t, path); !slices.Equal(got, []string{"occupied"}) {
		t.Fatalf("target holds %v after a failed commit", got)
	}
}

func TestRenameDurableMissingSource(t *testing.T) {
	dir := t.TempDir()
	if err := RenameDurable(filepath.Join(dir, "nope"), filepath.Join(dir, "dst")); err == nil {
		t.Fatal("rename of a missing file succeeded")
	}
}
