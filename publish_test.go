//go:build unix

package apspark

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"testing"

	"apspark/internal/matrix"
	"apspark/internal/store"
)

// Every file the repo publishes goes through one commit path (fsx.Pending).
// These two tests hold each publisher to its contract: what it publishes
// is mode 0644, and a publish whose rename fails leaves no trace.

// publishFixture is one solved graph and the handles that publish from it.
type publishFixture struct {
	ctx context.Context
	g   *Graph
	s   *Session
	res *Result
	o   *Oracle
}

func newPublishFixture(t *testing.T) publishFixture {
	t.Helper()
	ctx := context.Background()
	g := hostTestGraph(t, 64, 4, 3)
	s, err := New(WithSolver(SolverDijkstra))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	o, err := s.BuildHierarchy(ctx, g, WithPartSize(16))
	if err != nil {
		t.Fatal(err)
	}
	return publishFixture{ctx: ctx, g: g, s: s, res: res, o: o}
}

// TestPublishedFilesAre0644: under umask 022 every published file is
// 0644, readable by whoever serves it: a store written whole, a streamed
// store (fresh and resumed) and its checkpoint manifest, a hierarchy
// file, and each file of an imported and of an updated generation.
func TestPublishedFilesAre0644(t *testing.T) {
	defer syscall.Umask(syscall.Umask(0o022))
	f := newPublishFixture(t)
	dir := t.TempDir()
	var published []string
	check := func(err error, paths ...string) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		published = append(published, paths...)
	}

	written := filepath.Join(dir, "written.apsp")
	check(f.res.WriteStore(written, 16), written)
	fresh := filepath.Join(dir, "fresh.apsp")
	_, err := f.s.SolveToStore(f.ctx, f.g, fresh, WithBlockSize(16))
	check(err, fresh)

	// A checkpoint of one panel, then the solve that resumes it.
	resumed := filepath.Join(dir, "resumed.apsp")
	pw, err := store.NewPanelWriterWithOptions(resumed, f.g.N, 16, store.PanelWriterOptions{Checkpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	panel := matrix.New(16, f.g.N)
	if err := f.res.Dist.ExtractInto(panel, 0, 0); err != nil {
		t.Fatal(err)
	}
	check(pw.WritePanel(panel))
	mode := modeOf(t, resumed+".manifest")
	pw.Abort()
	res, err := f.s.SolveToStore(f.ctx, f.g, resumed, WithBlockSize(16), WithResume(true))
	if err == nil && res.UnitsSkipped == 0 {
		t.Fatal("the resumed solve restored no panel")
	}
	check(err, resumed)

	hier := filepath.Join(dir, "g.hier")
	check(f.o.Save(hier), hier)

	gens := filepath.Join(dir, "gens")
	first, err := InitGenerations(gens, written, f.g)
	check(err, filepath.Join(gens, "CURRENT"))
	genFiles := func(id string) []string {
		return []string{filepath.Join(gens, id, "dist.apsp"), filepath.Join(gens, id, "graph.txt"), filepath.Join(gens, id, "meta.json")}
	}
	published = append(published, genFiles(first)...)
	up, err := f.s.ApplyDeltas(f.ctx, gens, []EdgeDelta{{U: 0, V: f.g.N - 1, W: 0.5}})
	check(err)
	published = append(published, genFiles(up.Generation)...)

	if mode != 0o644 {
		t.Errorf("%s.manifest: mode %v, want 0644", resumed, mode)
	}
	for _, p := range published {
		if m := modeOf(t, p); m != 0o644 {
			t.Errorf("%s: mode %v, want 0644", p, m)
		}
	}
}

func modeOf(t *testing.T, path string) os.FileMode {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Mode().Perm()
}

// TestFailedPublishLeavesNoTrace: with a non-empty directory at the
// target the final rename fails. Every publisher must then return an
// error, leave the target as it was, and leave no temp file beside it.
func TestFailedPublishLeavesNoTrace(t *testing.T) {
	f := newPublishFixture(t)
	for _, tc := range []struct {
		name string
		// setup prepares dir and returns the path the publisher will
		// write and the call that publishes it.
		setup func(t *testing.T, dir string) (target string, publish func() error)
		// kept names an entry the failed publish leaves on purpose.
		kept string
	}{
		{name: "store write", setup: func(t *testing.T, dir string) (string, func() error) {
			p := filepath.Join(dir, "d.apsp")
			return p, func() error { return f.res.WriteStore(p, 16) }
		}},
		{name: "streamed store", setup: func(t *testing.T, dir string) (string, func() error) {
			p := filepath.Join(dir, "d.apsp")
			return p, func() error { _, err := f.s.SolveToStore(f.ctx, f.g, p, WithBlockSize(16)); return err }
		}},
		// The first panel's manifest cannot be committed. The partial
		// file it would have described stays, like that of any solve
		// stopped before its end.
		{name: "checkpoint manifest", kept: "d.apsp.partial", setup: func(t *testing.T, dir string) (string, func() error) {
			p := filepath.Join(dir, "d.apsp")
			return p + ".manifest", func() error { _, err := f.s.SolveToStore(f.ctx, f.g, p, WithBlockSize(16)); return err }
		}},
		{name: "Oracle.Save", setup: func(t *testing.T, dir string) (string, func() error) {
			p := filepath.Join(dir, "g.hier")
			return p, func() error { return f.o.Save(p) }
		}},
		// A CURRENT that cannot be read sends Open to the newest
		// generation, and Open re-points CURRENT at it.
		{name: "CURRENT", setup: func(t *testing.T, dir string) (string, func() error) {
			src := filepath.Join(t.TempDir(), "d.apsp")
			if err := f.res.WriteStore(src, 16); err != nil {
				t.Fatal(err)
			}
			if _, err := InitGenerations(dir, src, f.g); err != nil {
				t.Fatal(err)
			}
			current := filepath.Join(dir, "CURRENT")
			if err := os.Remove(current); err != nil {
				t.Fatal(err)
			}
			return current, func() error { _, err := Generations(dir); return err }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			target, publish := tc.setup(t, dir)
			if err := os.MkdirAll(filepath.Join(target, "occupied"), 0o755); err != nil {
				t.Fatal(err)
			}
			before := entries(t, dir)
			if err := publish(); err == nil {
				t.Fatal("publishing onto a non-empty directory succeeded")
			}
			want := before
			if tc.kept != "" {
				want = append(want, tc.kept)
				slices.Sort(want)
			}
			if got := entries(t, dir); !slices.Equal(got, want) {
				t.Errorf("directory holds %v after the failed publish, want %v", got, want)
			}
			if got := entries(t, target); !slices.Equal(got, []string{"occupied"}) {
				t.Errorf("target holds %v after the failed publish", got)
			}
		})
	}
}

// entries lists dir's entry names, sorted.
func entries(t *testing.T, dir string) []string {
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
