package generation

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"apspark/internal/graph"
	"apspark/internal/matrix"
	"apspark/internal/seq"
	"apspark/internal/store"
)

// The codec-inheritance contract: a generation lineage seeded with a
// compressed store stays compressed through delta rebuilds — recomputed
// panels re-encode with the parent's preferred codec and clean panels
// transfer encoded-bytes-verbatim — without perturbing any answer.

// seedDirWithCodec mirrors seedDir but writes the seed store through the
// named codec. twoComponentGraph's integer edge weights make every
// finite distance an exact integer, so ivarint engages on every tile.
func seedDirWithCodec(t testing.TB, g *graph.Graph, b int, codec string) string {
	t.Helper()
	c, err := store.CodecByName(codec)
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	sp := filepath.Join(tmp, "seed.apsp")
	if err := store.WriteWithCodec(sp, seq.Reference(g), b, c); err != nil {
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

// TestDeltaRebuildInheritsCodec: ApplyDeltas on an ivarint parent must
// produce an ivarint child — including the recomputed dirty panels —
// that still answers exactly, and the density must survive the rebuild.
func TestDeltaRebuildInheritsCodec(t *testing.T) {
	const n, b = 48, 8
	g := twoComponentGraph(t, n)
	dir := seedDirWithCodec(t, g, b, "ivarint")
	m, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Integer-weight deltas keep the new distances in ivarint's domain:
	// one dirtying component A, one removal elsewhere in A.
	deltas := []Delta{{U: 0, V: 9, W: 2}, {U: 3, V: 4, Remove: true}}
	res, err := m.ApplyDeltas(context.Background(), deltas)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generation != "gen-0002" {
		t.Fatalf("promoted %q, want gen-0002", res.Generation)
	}
	checkStoreMatches(t, m, seq.Reference(applyToGraph(t, g, deltas)))

	st, _, id, err := m.OpenCurrent()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if id != "gen-0002" {
		t.Fatalf("current = %q", id)
	}
	snap := st.Snapshot()
	if snap.Codec != "ivarint" {
		t.Fatalf("child store codec = %q, want inherited ivarint", snap.Codec)
	}
	if snap.CodecTiles["ivarint"] == 0 {
		t.Fatal("child store holds no ivarint tiles after rebuild")
	}
	if snap.CodecRatio < 2 {
		t.Fatalf("child codec ratio %.2f, want >= 2 on an integer store", snap.CodecRatio)
	}
	// Rollback restores the (also compressed) parent, still exact.
	if _, err := m.Rollback(); err != nil {
		t.Fatal(err)
	}
	checkStoreMatches(t, m, seq.Reference(g))
}

// TestChurnIVarintStore runs the zero-downtime churn stack against a
// compressed lineage: live queries across the swap, healthz advertising
// the codec and its density, and a live rollback — all on ivarint
// stores end to end.
func TestChurnIVarintStore(t *testing.T) {
	const n, b = 48, 8
	g := twoComponentGraph(t, n)
	dir := seedDirWithCodec(t, g, b, "ivarint")
	deltas := []Delta{{U: 0, V: 9, W: 2}}
	refOld := seq.Reference(g)
	refNew := seq.Reference(applyToGraph(t, g, deltas))

	cs := newChurnStack(t, dir)

	assertRow := func(from int, ref *matrix.Block, epoch string) {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("%s/row?from=%d", cs.query.URL, from))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rr churnRow
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			t.Fatal(err)
		}
		if !rowMatches(rr, ref) {
			t.Fatalf("row %d from compressed store does not match the %s graph", from, epoch)
		}
	}
	assertRow(0, refOld, "old")

	var h struct {
		Codec      string  `json:"codec"`
		CodecRatio float64 `json:"codec_ratio"`
	}
	resp, err := http.Get(cs.query.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Codec != "ivarint" || h.CodecRatio < 2 {
		t.Fatalf("healthz codec = %q ratio %.2f, want ivarint at >= 2x", h.Codec, h.CodecRatio)
	}

	raw := postAdmin(t, cs.admin.URL+"/update", map[string]any{"deltas": deltas}, http.StatusOK)
	var res UpdateResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("update response: %v: %s", err, raw)
	}
	if res.Generation != "gen-0002" {
		t.Fatalf("promoted %q, want gen-0002", res.Generation)
	}
	if gen := servedGeneration(t, cs.query.URL); gen != "gen-0002" {
		t.Fatalf("serving %q after promote, want gen-0002", gen)
	}
	assertRow(0, refNew, "new")

	postAdmin(t, cs.admin.URL+"/rollback", struct{}{}, http.StatusOK)
	if gen := servedGeneration(t, cs.query.URL); gen != "gen-0001" {
		t.Fatalf("serving %q after rollback, want gen-0001", gen)
	}
	assertRow(0, refOld, "old")
}

// corruptCandidateMidValidate arms the crash hook to flip a byte in the
// named candidate's store between build and validation.
func corruptCandidateMidValidate(t *testing.T, dir, gen string) {
	t.Helper()
	crashHook = func(stage string) {
		if stage != "mid-validate" {
			return
		}
		p := filepath.Join(dir, gen, storeName)
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Error(err)
			return
		}
		raw[len(raw)-len(raw)/4] ^= 0x40
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Error(err)
		}
	}
}

// TestValidationCatchesCorruptCompressedCandidate: the promote gate must
// reject a candidate whose compressed payload was damaged between build
// and validation — the CRC (and failing that, the codec's structural
// checks) turn silent bit rot into a typed validation failure.
func TestValidationCatchesCorruptCompressedCandidate(t *testing.T) {
	const n, b = 32, 8
	g := twoComponentGraph(t, n)
	dir := seedDirWithCodec(t, g, b, "ivarint")
	m, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	corruptCandidateMidValidate(t, dir, "gen-0002")
	defer func() { crashHook = nil }()

	_, err = m.ApplyDeltas(context.Background(), []Delta{{U: 0, V: 1, W: 3}})
	if err == nil {
		t.Fatal("corrupt compressed candidate was promoted")
	}
	if m.Current() != "gen-0001" {
		t.Fatalf("CURRENT moved to %q on a rejected candidate", m.Current())
	}
	checkStoreMatches(t, m, seq.Reference(g))
}
