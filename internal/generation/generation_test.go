package generation

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"apspark/internal/fsx"
	"apspark/internal/graph"
	"apspark/internal/matrix"
	"apspark/internal/seq"
	"apspark/internal/store"
)

// twoComponentGraph builds a deterministic graph of two disconnected path
// components — vertices [0, n/2) and [n/2, n) — so a delta inside one
// component provably leaves the other's rows clean (every cross-component
// distance is Inf on both sides of any update). Edge i-(i+1) carries
// weight 1+i%3.
func twoComponentGraph(t testing.TB, n int) *graph.Graph {
	t.Helper()
	var edges []graph.Edge
	for i := 0; i < n-1; i++ {
		if i == n/2-1 {
			continue // the cut between components
		}
		edges = append(edges, graph.Edge{U: i, V: i + 1, W: float64(1 + i%3)})
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// seedDir solves g, writes its store, and imports it as gen-0001 of a
// fresh directory.
func seedDir(t testing.TB, g *graph.Graph, b int) string {
	t.Helper()
	tmp := t.TempDir()
	sp := filepath.Join(tmp, "seed.apsp")
	if err := store.WriteWithCodec(sp, seq.Reference(g), b, store.CodecRaw); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(tmp, "gens")
	id, err := Import(dir, sp, g)
	if err != nil {
		t.Fatal(err)
	}
	if id != "gen-0001" {
		t.Fatalf("imported id = %q, want gen-0001", id)
	}
	return dir
}

// checkStoreMatches verifies every row of the current generation's store
// against the reference matrix.
func checkStoreMatches(t testing.TB, m *Manager, ref *matrix.Block) {
	t.Helper()
	st, _, id, err := m.OpenCurrent()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.N() != ref.R {
		t.Fatalf("%s: store n = %d, ref n = %d", id, st.N(), ref.R)
	}
	var row []float64
	for r := 0; r < ref.R; r++ {
		row, err = st.RowInto(context.Background(), r, row)
		if err != nil {
			t.Fatalf("%s: row %d: %v", id, r, err)
		}
		for c, got := range row {
			want := ref.At(r, c)
			if math.IsInf(want, 1) && math.IsInf(got, 1) {
				continue
			}
			if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
				t.Fatalf("%s: d(%d,%d) = %v, want %v", id, r, c, got, want)
			}
		}
	}
}

// applyToGraph mirrors a delta batch onto a graph, producing the
// reference graph for correctness checks.
func applyToGraph(t testing.TB, g *graph.Graph, deltas []Delta) *graph.Graph {
	t.Helper()
	type key struct{ u, v int }
	w := map[key]float64{}
	for _, e := range g.Edges() {
		w[key{e.U, e.V}] = e.W
	}
	for _, d := range deltas {
		u, v := d.U, d.V
		if u > v {
			u, v = v, u
		}
		if d.Remove {
			delete(w, key{u, v})
		} else {
			w[key{u, v}] = d.W
		}
	}
	var edges []graph.Edge
	for k, wt := range w {
		edges = append(edges, graph.Edge{U: k.u, V: k.v, W: wt})
	}
	ng, err := graph.FromEdges(g.N, edges)
	if err != nil {
		t.Fatal(err)
	}
	return ng
}

func TestImportOpenServe(t *testing.T) {
	g := twoComponentGraph(t, 32)
	dir := seedDir(t, g, 8)
	m, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Current() != "gen-0001" {
		t.Fatalf("current = %q", m.Current())
	}
	if n, b := m.Geometry(); n != 32 || b != 8 {
		t.Fatalf("geometry = (%d,%d), want (32,8)", n, b)
	}
	checkStoreMatches(t, m, seq.Reference(g))
	infos := m.Generations()
	if len(infos) != 1 || !infos[0].Current || infos[0].Seq != 1 {
		t.Fatalf("generations = %+v", infos)
	}
}

func TestImportRefusesExistingCurrent(t *testing.T) {
	g := twoComponentGraph(t, 16)
	dir := seedDir(t, g, 8)
	sp := filepath.Join(filepath.Dir(dir), "seed.apsp")
	if _, err := Import(dir, sp, g); err == nil {
		t.Fatal("second Import over a live directory succeeded")
	}
}

// TestApplyDeltasMixedBatchMatchesResolve is the correctness criterion:
// a mixed batch (decrease, increase, remove, add) produces a generation
// whose every distance equals a from-scratch solve of the new graph —
// while the untouched component's panels were raw-copied, not re-solved.
func TestApplyDeltasMixedBatchMatchesResolve(t *testing.T) {
	const n, b = 48, 8
	g := twoComponentGraph(t, n)
	dir := seedDir(t, g, b)
	m, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// All mutations inside component A (vertices 0..23): the B component's
	// rows (24..47) must classify clean.
	deltas := []Delta{
		{U: 3, V: 4, W: 0.25},        // decrease
		{U: 10, V: 11, W: 9},         // increase
		{U: 15, V: 16, Remove: true}, // remove (splits A in two)
		{U: 0, V: 20, W: 2},          // add a brand-new shortcut edge
	}
	res, err := m.ApplyDeltas(context.Background(), deltas)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generation != "gen-0002" || res.Parent != "gen-0001" {
		t.Fatalf("result = %+v", res)
	}
	if m.Current() != "gen-0002" {
		t.Fatalf("current = %q after promote", m.Current())
	}
	// Rows 24..47 are clean: at most the first 3 of 6 panels are dirty.
	if res.DirtyRows > n/2 {
		t.Fatalf("dirty rows = %d, want <= %d (component B must stay clean)", res.DirtyRows, n/2)
	}
	if res.DirtyPanels >= res.TotalPanels {
		t.Fatalf("dirty panels = %d of %d: no panel was raw-copied", res.DirtyPanels, res.TotalPanels)
	}
	newG := applyToGraph(t, g, deltas)
	checkStoreMatches(t, m, seq.Reference(newG))

	// A reopened manager sees the same state (durability of CURRENT).
	m2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Current() != "gen-0002" {
		t.Fatalf("reopened current = %q", m2.Current())
	}
	checkStoreMatches(t, m2, seq.Reference(newG))
}

// TestApplyDeltasBridgesComponents: an edge add that connects the two
// components flips cross-component distances from Inf to finite for
// EVERY source, so the classifier's Inf-aware relaxation path must mark
// every row dirty — naive tolerance arithmetic computes Inf-Inf = NaN,
// marks nothing, and either wedges promotion behind the validation gate
// or serves stale +Inf distances. The promoted generation must carry the
// new finite distances everywhere.
func TestApplyDeltasBridgesComponents(t *testing.T) {
	const n, b = 32, 8
	g := twoComponentGraph(t, n)
	dir := seedDir(t, g, b)
	m, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	deltas := []Delta{{U: n/2 - 1, V: n / 2, W: 2}} // the bridge
	res, err := m.ApplyDeltas(context.Background(), deltas)
	if err != nil {
		t.Fatalf("bridging delta rejected: %v", err)
	}
	if res.DirtyRows != n {
		t.Fatalf("dirty rows = %d, want %d (reachability changed for every source)", res.DirtyRows, n)
	}
	checkStoreMatches(t, m, seq.Reference(applyToGraph(t, g, deltas)))

	// Cutting the bridge again restores the two-component distances; the
	// worsening side is the tightness test's job and must flag every row
	// whose shortest paths crossed the bridge.
	cut := []Delta{{U: n/2 - 1, V: n / 2, Remove: true}}
	if _, err := m.ApplyDeltas(context.Background(), cut); err != nil {
		t.Fatalf("bridge removal rejected: %v", err)
	}
	checkStoreMatches(t, m, seq.Reference(g))
}

// TestApplyDeltasConnectsIsolatedVertex: the smallest bridge — a vertex
// with no edges at all gains its first one, and its row (plus everyone
// else's distance to it) goes from all-Inf to finite.
func TestApplyDeltasConnectsIsolatedVertex(t *testing.T) {
	const n, b = 24, 8
	var edges []graph.Edge
	for i := 0; i < n-2; i++ { // vertex n-1 has no edges
		edges = append(edges, graph.Edge{U: i, V: i + 1, W: float64(1 + i%3)})
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	dir := seedDir(t, g, b)
	m, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	deltas := []Delta{{U: 0, V: n - 1, W: 3}}
	res, err := m.ApplyDeltas(context.Background(), deltas)
	if err != nil {
		t.Fatalf("isolated-vertex delta rejected: %v", err)
	}
	if res.DirtyRows != n {
		t.Fatalf("dirty rows = %d, want %d", res.DirtyRows, n)
	}
	checkStoreMatches(t, m, seq.Reference(applyToGraph(t, g, deltas)))
}

// TestMutationsBounceWhileDirectoryLocked: while another holder (another
// process in production; a bare fsx.LockDir here — flock ownership is
// per open-file-description) owns the directory lock, mutating
// operations report ErrBusy instead of racing the owner's build, and
// work again once the lock is released.
func TestMutationsBounceWhileDirectoryLocked(t *testing.T) {
	g := twoComponentGraph(t, 16)
	dir := seedDir(t, g, 8)
	m, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lock, err := fsx.LockDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer lock.Unlock()
	ctx := context.Background()
	if _, err := m.ApplyDeltas(ctx, []Delta{{U: 0, V: 1, W: 4}}); !errors.Is(err, ErrBusy) {
		t.Fatalf("ApplyDeltas under foreign lock: err = %v, want ErrBusy", err)
	}
	if _, err := m.Rollback(); !errors.Is(err, ErrBusy) {
		t.Fatalf("Rollback under foreign lock: err = %v, want ErrBusy", err)
	}
	if err := lock.Unlock(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ApplyDeltas(ctx, []Delta{{U: 0, V: 1, W: 4}}); err != nil {
		t.Fatalf("ApplyDeltas after unlock: %v", err)
	}
	if m.Current() != "gen-0002" {
		t.Fatalf("current = %q, want gen-0002", m.Current())
	}
}

func TestApplyDeltasRejectsNoopsAndGarbage(t *testing.T) {
	g := twoComponentGraph(t, 16)
	m, err := Open(seedDir(t, g, 8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Same weight the edge already has, and removal of an absent edge:
	// an all-no-op batch must not mint a new generation. Every rejection
	// here is the client's fault and must carry ErrBadDelta (the admin
	// layer maps it to 400; anything untyped becomes a 500).
	if _, err := m.ApplyDeltas(ctx, []Delta{{U: 0, V: 1, W: 1}, {U: 0, V: 9, Remove: true}}); !errors.Is(err, ErrBadDelta) {
		t.Fatalf("no-op batch: err = %v, want ErrBadDelta", err)
	}
	for _, bad := range [][]Delta{
		{{U: 0, V: 99, W: 1}},          // out of range
		{{U: 5, V: 5, W: 1}},           // self loop
		{{U: 0, V: 1, W: -2}},          // negative
		{{U: 0, V: 1, W: math.Inf(1)}}, // infinite
		{{U: 0, V: 1, W: math.NaN()}},  // NaN
	} {
		if _, err := m.ApplyDeltas(ctx, bad); !errors.Is(err, ErrBadDelta) {
			t.Fatalf("invalid batch %+v: err = %v, want ErrBadDelta", bad, err)
		}
	}
	if m.Current() != "gen-0001" {
		t.Fatalf("current moved to %q on rejected batches", m.Current())
	}
}

// TestApplyDeltasCancelledMidBuild cancels the update's context at the
// mid-build seam, just before the dirty panel's solve: the solve stops
// between rows with the context's error, the half-built candidate is
// removed, CURRENT keeps serving, and the next update is not wedged.
func TestApplyDeltasCancelledMidBuild(t *testing.T) {
	g := twoComponentGraph(t, 16) // b=8: panel 1 is the second component
	dir := seedDir(t, g, 8)
	m, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	crashHook = func(stage string) {
		if stage == "mid-build" {
			cancel()
		}
	}
	defer func() { crashHook = nil }()
	deltas := []Delta{{U: 9, V: 10, W: 7}}
	if _, err := m.ApplyDeltas(ctx, deltas); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	left, err := filepath.Glob(filepath.Join(dir, "*"+buildingSuffix))
	if err != nil || len(left) != 0 {
		t.Fatalf("cancelled build left %v behind (%v)", left, err)
	}
	if m.Current() != "gen-0001" {
		t.Fatalf("current = %q, want untouched gen-0001", m.Current())
	}
	checkStoreMatches(t, m, seq.Reference(g))

	crashHook = nil
	res, err := m.ApplyDeltas(context.Background(), deltas)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generation != "gen-0002" {
		t.Fatalf("generation after a cancelled build = %q, want gen-0002", res.Generation)
	}
	checkStoreMatches(t, m, seq.Reference(applyToGraph(t, g, deltas)))
}

// TestValidationQuarantine corrupts the candidate store between build and
// validation (via the crash hook seam): the gate must reject it, leave
// CURRENT untouched, and keep the candidate on disk under .quarantined.
func TestValidationQuarantine(t *testing.T) {
	g := twoComponentGraph(t, 32)
	dir := seedDir(t, g, 8)
	m, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	crashHook = func(stage string) {
		if stage != "mid-validate" {
			return
		}
		// Flip one payload byte of the candidate's store: with q=4 and 16
		// spot-check samples every tile is CRC-verified, so any flip fails
		// the gate.
		p := filepath.Join(dir, "gen-0002", storeName)
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Error(err)
			return
		}
		raw[len(raw)/2] ^= 0x40
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Error(err)
		}
	}
	defer func() { crashHook = nil }()

	_, err = m.ApplyDeltas(context.Background(), []Delta{{U: 0, V: 1, W: 7}})
	if !errors.Is(err, ErrValidation) {
		t.Fatalf("err = %v, want ErrValidation", err)
	}
	if m.Current() != "gen-0001" {
		t.Fatalf("current = %q, want untouched gen-0001", m.Current())
	}
	if _, err := os.Stat(filepath.Join(dir, "gen-0002"+quarantineSufix)); err != nil {
		t.Fatalf("no quarantined candidate on disk: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "gen-0002")); !os.IsNotExist(err) {
		t.Fatal("rejected candidate still visible as a live generation")
	}
	// The old generation still serves correct data.
	checkStoreMatches(t, m, seq.Reference(g))

	// And the lifecycle is not wedged: the same delta applies cleanly once
	// the corruption stops. The new generation continues the sequence past
	// the quarantined one.
	crashHook = nil
	res, err := m.ApplyDeltas(context.Background(), []Delta{{U: 0, V: 1, W: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Generation != "gen-0003" {
		t.Fatalf("post-quarantine generation = %q, want gen-0003", res.Generation)
	}
}

func TestRollbackAndRollForward(t *testing.T) {
	g := twoComponentGraph(t, 32)
	dir := seedDir(t, g, 8)
	m, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	refOld := seq.Reference(g)
	deltas := []Delta{{U: 5, V: 6, W: 0.5}}
	if _, err := m.ApplyDeltas(context.Background(), deltas); err != nil {
		t.Fatal(err)
	}
	refNew := seq.Reference(applyToGraph(t, g, deltas))
	checkStoreMatches(t, m, refNew)

	id, err := m.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if id != "gen-0001" || m.Current() != "gen-0001" {
		t.Fatalf("rollback landed on %q", id)
	}
	// Rollback restores the OLD answers — graph and distances together.
	checkStoreMatches(t, m, refOld)

	// No older generation left: rollback refuses.
	if _, err := m.Rollback(); !errors.Is(err, ErrNoOlder) {
		t.Fatalf("second rollback err = %v, want ErrNoOlder", err)
	}

	// Rolling forward is a fresh update; the sequence continues past the
	// rolled-back-from generation instead of colliding with it.
	res, err := m.ApplyDeltas(context.Background(), deltas)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generation != "gen-0003" {
		t.Fatalf("post-rollback update minted %q, want gen-0003", res.Generation)
	}
	checkStoreMatches(t, m, refNew)
}

func TestGCKeepLast(t *testing.T) {
	g := twoComponentGraph(t, 32)
	dir := seedDir(t, g, 8)
	m, err := Open(dir, Options{KeepLast: 2})
	if err != nil {
		t.Fatal(err)
	}
	weights := []float64{0.5, 0.25, 0.125, 4}
	for _, w := range weights {
		if _, err := m.ApplyDeltas(context.Background(), []Delta{{U: 0, V: 1, W: w}}); err != nil {
			t.Fatal(err)
		}
	}
	infos := m.Generations()
	if len(infos) != 2 {
		t.Fatalf("generations after GC = %+v, want 2", infos)
	}
	if infos[len(infos)-1].ID != "gen-0005" || !infos[len(infos)-1].Current {
		t.Fatalf("newest = %+v", infos[len(infos)-1])
	}
	if _, err := os.Stat(filepath.Join(dir, "gen-0001")); !os.IsNotExist(err) {
		t.Fatal("gen-0001 survived keep-last-2 GC")
	}
}

// TestOpenFallsBackFromTornCurrent: a torn or garbage CURRENT must not
// brick the directory — Open falls back to the newest openable
// generation and repairs the pointer.
func TestOpenFallsBackFromTornCurrent(t *testing.T) {
	g := twoComponentGraph(t, 32)
	dir := seedDir(t, g, 8)
	m, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ApplyDeltas(context.Background(), []Delta{{U: 0, V: 1, W: 5}}); err != nil {
		t.Fatal(err)
	}
	for _, tear := range []string{"", "gen-", "gen-9999", "garbage\x00bytes"} {
		if err := os.WriteFile(filepath.Join(dir, currentName), []byte(tear), 0o644); err != nil {
			t.Fatal(err)
		}
		m2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("CURRENT=%q: %v", tear, err)
		}
		if m2.Current() != "gen-0002" {
			t.Fatalf("CURRENT=%q: fell back to %q, want gen-0002", tear, m2.Current())
		}
		// The pointer was repaired on disk.
		if raw, _ := os.ReadFile(filepath.Join(dir, currentName)); strings.TrimSpace(string(raw)) != "gen-0002" {
			t.Fatalf("CURRENT not repaired: %q", raw)
		}
	}
}

func TestOpenRemovesBuildingLeftovers(t *testing.T) {
	g := twoComponentGraph(t, 16)
	dir := seedDir(t, g, 8)
	leftover := filepath.Join(dir, "gen-0002"+buildingSuffix)
	if err := os.MkdirAll(leftover, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(leftover); !os.IsNotExist(err) {
		t.Fatal(".building leftover survived Open")
	}
}

func TestOpenEmptyDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "gens")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrEmpty) {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
}
