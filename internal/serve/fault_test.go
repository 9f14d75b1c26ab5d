package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"apspark/internal/faultfs"
	"apspark/internal/graph"
	"apspark/internal/matrix"
	"apspark/internal/store"
)

// The serving acceptance tests for fault tolerance: a faultfs wrapper
// sits under the store, and every check goes through the real HTTP
// stack — handler, engine, caches, store, injected disk.

const faultTestBS = 8

// newFaultyEngine builds the serving stack over a fault-injectable
// store: graph -> Floyd-Warshall -> store file -> faultfs -> store ->
// engine. withGraph arms /path and the corrupt-tile recompute fallback.
func newFaultyEngine(t *testing.T, n int, seed int64, withGraph bool, opts store.Options) (*Engine, *matrix.Block, *store.Store, *faultfs.Reader) {
	t.Helper()
	g, err := graph.ErdosRenyiPaper(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return faultyEngineOver(t, g, "raw", withGraph, opts)
}

// faultyEngineOver is newFaultyEngine for a given graph and tile codec.
func faultyEngineOver(t *testing.T, g *graph.Graph, codec string, withGraph bool, opts store.Options) (*Engine, *matrix.Block, *store.Store, *faultfs.Reader) {
	t.Helper()
	dist := fwRef(t, g)
	path := filepath.Join(t.TempDir(), "dist.apsp")
	c, err := store.CodecByName(codec)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.WriteWithCodec(path, dist, faultTestBS, c); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fr := faultfs.New(bytes.NewReader(raw))
	st, err := store.OpenReader(fr, int64(len(raw)), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if !withGraph {
		g = nil
	}
	e, err := New(st, g)
	if err != nil {
		t.Fatal(err)
	}
	return e, dist, st, fr
}

// tileWindow returns the byte range [lo, hi) of tile (0,0) in a store
// file with q tiles per side — the target window for bit-flip faults.
// Layout: 24-byte file header, q*q 24-byte index entries, then tile
// (0,0)'s marshalled bytes (matrix header + b*b float64s).
func tileWindow(q int) (lo, hi int64) {
	lo = 24 + int64(q*q)*24
	hi = lo + int64(matrix.HeaderLen) + faultTestBS*faultTestBS*8
	return lo, hi
}

func approxEq(a, b float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return math.IsInf(a, 1) && math.IsInf(b, 1)
	}
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

// checkEndpoints drives all four single-query endpoints plus /batch
// against the reference matrix for source row `from` and fails on any
// divergence.
func checkEndpoints(t *testing.T, url string, dist *matrix.Block, from int) {
	t.Helper()
	n := dist.R

	to := (from + n/2) % n
	if got, want := getDist(t, url, from, to), dist.At(from, to); !approxEq(got, want) {
		t.Fatalf("dist(%d,%d) = %v, want %v", from, to, got, want)
	}

	var rr struct {
		From int        `json:"from"`
		N    int        `json:"n"`
		Dist []*float64 `json:"dist"` // null (unreachable) decodes as nil
	}
	getJSON(t, fmt.Sprintf("%s/row?from=%d", url, from), http.StatusOK, &rr)
	if rr.N != n || len(rr.Dist) != n {
		t.Fatalf("row(%d): n = %d, len = %d, want %d", from, rr.N, len(rr.Dist), n)
	}
	for j, v := range rr.Dist {
		want := dist.At(from, j)
		switch {
		case v == nil:
			if !math.IsInf(want, 1) {
				t.Fatalf("row(%d)[%d] = null, want %v", from, j, want)
			}
		case !approxEq(*v, want):
			t.Fatalf("row(%d)[%d] = %v, want %v", from, j, *v, want)
		}
	}

	var kr struct {
		Targets []Target `json:"targets"`
	}
	getJSON(t, fmt.Sprintf("%s/knn?from=%d&k=3", url, from), http.StatusOK, &kr)
	for _, tgt := range kr.Targets {
		if !approxEq(tgt.Dist, dist.At(from, tgt.To)) {
			t.Fatalf("knn(%d) -> %d = %v, want %v", from, tgt.To, tgt.Dist, dist.At(from, tgt.To))
		}
	}

	// A reachable path target: the nearest KNN answer is reachable by
	// construction.
	if len(kr.Targets) > 0 {
		pt := kr.Targets[0].To
		var pr struct {
			Dist float64 `json:"dist"`
			Hops []int   `json:"hops"`
		}
		getJSON(t, fmt.Sprintf("%s/path?from=%d&to=%d", url, from, pt), http.StatusOK, &pr)
		if !approxEq(pr.Dist, dist.At(from, pt)) {
			t.Fatalf("path(%d,%d) dist = %v, want %v", from, pt, pr.Dist, dist.At(from, pt))
		}
		if len(pr.Hops) < 2 || pr.Hops[0] != from || pr.Hops[len(pr.Hops)-1] != pt {
			t.Fatalf("path(%d,%d) hops = %v", from, pt, pr.Hops)
		}
	}

	var br struct {
		Dist []struct {
			Dist *float64 `json:"dist"`
		} `json:"dist"`
		Row []struct {
			N int `json:"n"`
		} `json:"row"`
	}
	postJSON(t, url+"/batch",
		fmt.Sprintf(`{"dist":[{"from":%d,"to":%d}],"row":[%d],"knn":[{"from":%d,"k":3}]}`, from, to, from, from),
		http.StatusOK, &br)
	if len(br.Dist) != 1 || !approxEq(deref(br.Dist[0].Dist), dist.At(from, to)) {
		t.Fatalf("batch dist = %+v, want %v", br.Dist, dist.At(from, to))
	}
	if len(br.Row) != 1 || br.Row[0].N != n {
		t.Fatalf("batch row = %+v", br.Row)
	}
}

// getDist fetches /dist, decoding the null of an unreachable pair back
// to +Inf.
func getDist(t *testing.T, url string, from, to int) float64 {
	t.Helper()
	var dr struct {
		Dist *float64 `json:"dist"`
	}
	getJSON(t, fmt.Sprintf("%s/dist?from=%d&to=%d", url, from, to), http.StatusOK, &dr)
	return deref(dr.Dist)
}

func deref(v *float64) float64 {
	if v == nil {
		return math.Inf(1)
	}
	return *v
}

func postJSON(t *testing.T, url, body string, wantCode int, into any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("POST %s: status %d, want %d", url, resp.StatusCode, wantCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("POST %s: decode: %v", url, err)
	}
}

// TestServeTransientFaultsWithinBudget: every other disk read fails with
// EIO, the store's retry budget absorbs it, and all four endpoints (plus
// /batch) keep answering bit-correct data; /healthz stays "ok" but
// reports the retries.
func TestServeTransientFaultsWithinBudget(t *testing.T) {
	e, dist, _, fr := newFaultyEngine(t, 40, 7, true, store.Options{
		RowCacheBytes: 1 << 20,
		ReadRetries:   2, RetryBackoff: time.Microsecond,
	})
	srv := httptest.NewServer(Handler(e))
	defer srv.Close()

	fr.Inject(faultfs.Fault{Kind: faultfs.KindErr, Every: 2})
	for _, from := range []int{0, 13, 39} {
		checkEndpoints(t, srv.URL, dist, from)
	}

	var h Health
	getJSON(t, srv.URL+"/healthz", http.StatusOK, &h)
	if h.Status != "ok" {
		t.Fatalf("healthz status = %q, want ok", h.Status)
	}
	if h.RetriedReads == 0 {
		t.Fatal("healthz reports no retried reads despite injected faults")
	}
	if h.Quarantined != 0 {
		t.Fatalf("healthz reports %d quarantined tiles, want 0", h.Quarantined)
	}
	if fr.Injected() == 0 {
		t.Fatal("fault harness never fired")
	}
}

// TestServeFaultsPastBudgetAre5xx: a persistent disk failure exhausts
// the retry budget and every endpoint answers 500 with the typed
// injected error surfaced in the body; clearing the fault heals the
// server without a restart.
func TestServeFaultsPastBudgetAre5xx(t *testing.T) {
	e, dist, _, fr := newFaultyEngine(t, 40, 11, true, store.Options{
		RowCacheBytes: 1 << 20,
		ReadRetries:   1, RetryBackoff: time.Microsecond,
	})
	srv := httptest.NewServer(Handler(e))
	defer srv.Close()

	fr.Inject(faultfs.Fault{Kind: faultfs.KindErr}) // every read, forever
	for _, url := range []string{
		srv.URL + "/dist?from=0&to=20",
		srv.URL + "/row?from=1",
		srv.URL + "/knn?from=2&k=3",
		srv.URL + "/path?from=3&to=20",
	} {
		var er errorResponse
		getJSON(t, url, http.StatusInternalServerError, &er)
		if !strings.Contains(er.Error, "injected") {
			t.Fatalf("GET %s: error %q does not surface the injected fault", url, er.Error)
		}
	}
	var er errorResponse
	postJSON(t, srv.URL+"/batch", `{"row":[4]}`, http.StatusInternalServerError, &er)
	if !strings.Contains(er.Error, "injected") {
		t.Fatalf("batch error %q does not surface the injected fault", er.Error)
	}

	fr.Clear()
	checkEndpoints(t, srv.URL, dist, 0)
}

// TestServeBitFlipRecomputesAndDegrades is the end-to-end integrity
// criterion: a bit-flipped tile is never served — the checksum
// quarantines it, the engine re-solves the affected rows from the graph
// (correct answers on every endpoint), and /healthz flips to "degraded"
// with the quarantine and recompute counters exposed.
func TestServeBitFlipRecomputesAndDegrades(t *testing.T) {
	e, dist, st, fr := newFaultyEngine(t, 40, 17, true, store.Options{
		RowCacheBytes: 1 << 20,
	})
	srv := httptest.NewServer(Handler(e))
	defer srv.Close()

	// Flip one payload bit on every read of tile (0,0): rows 0..7 columns
	// 0..7 are unreadable from disk until the tile is quarantined.
	lo, hi := tileWindow(st.TilesPerSide())
	fr.Inject(faultfs.Fault{
		Kind: faultfs.KindBitFlip, FlipBit: int64(matrix.HeaderLen)*8 + 17,
		OffLo: lo, OffHi: hi,
	})

	// Rows through the damaged tile answer correctly on all endpoints —
	// recomputed from the graph, never from the flipped bytes.
	checkEndpoints(t, srv.URL, dist, 0)
	checkEndpoints(t, srv.URL, dist, 5)
	// Rows outside the damaged stripe serve straight from the store.
	checkEndpoints(t, srv.URL, dist, 39)

	var h Health
	getJSON(t, srv.URL+"/healthz", http.StatusOK, &h)
	if h.Status != "degraded" {
		t.Fatalf("healthz status = %q, want degraded", h.Status)
	}
	if h.Quarantined < 1 {
		t.Fatalf("healthz quarantined = %d, want >= 1", h.Quarantined)
	}
	if h.Recomputed < 1 {
		t.Fatalf("healthz recomputed = %d, want >= 1", h.Recomputed)
	}
	if e.Recomputed() != h.Recomputed {
		t.Fatalf("engine recomputed %d != healthz %d", e.Recomputed(), h.Recomputed)
	}
}

// TestServeRestartGroupRotRecomputes: the same criterion on the
// row-addressable compressed path, with the rot arriving late. The
// ivarint tiles are verified and memoised by clean traffic first; then
// tile (0,0) starts returning a flipped bit on every read. The small
// span reads that follow fail their restart-group checksum — no value is
// decoded from them — the tile is quarantined, and the engine re-solves
// the rows from the graph.
func TestServeRestartGroupRotRecomputes(t *testing.T) {
	g, err := graph.ErdosRenyiConnected(40, graph.AvgDegreeProb(40, 6), graph.IntegerWeights(50), 17)
	if err != nil {
		t.Fatal(err)
	}
	e, dist, st, fr := faultyEngineOver(t, g, "ivarint", true, store.Options{})
	if st.CodecTiles()["ivarint"] == 0 {
		t.Fatalf("integer-weight store has no ivarint tiles: %v", st.CodecTiles())
	}
	srv := httptest.NewServer(Handler(e))
	defer srv.Close()

	checkEndpoints(t, srv.URL, dist, 0)
	checkEndpoints(t, srv.URL, dist, 5)
	if e.Recomputed() != 0 || st.Quarantined() != 0 {
		t.Fatalf("clean traffic recomputed %d rows, quarantined %d tiles", e.Recomputed(), st.Quarantined())
	}

	lo, length, err := st.TileSpan(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	fr.Inject(faultfs.Fault{Kind: faultfs.KindBitFlip, FlipBit: 13, OffLo: lo, OffHi: lo + length})
	checkEndpoints(t, srv.URL, dist, 0)
	checkEndpoints(t, srv.URL, dist, 5)
	checkEndpoints(t, srv.URL, dist, 39)

	var h Health
	getJSON(t, srv.URL+"/healthz", http.StatusOK, &h)
	if h.Status != "degraded" || h.Quarantined != 1 || h.Recomputed < 1 {
		t.Fatalf("healthz = %+v, want degraded with 1 quarantined tile and recomputed rows", h)
	}
}

// TestServeBitFlipWithoutGraphFails: with no graph to recompute from, a
// corrupt tile is a hard 500 (the typed corruption error) — but never
// wrong data — and /healthz still reports the degradation.
func TestServeBitFlipWithoutGraphFails(t *testing.T) {
	e, dist, st, fr := newFaultyEngine(t, 40, 17, false, store.Options{
		RowCacheBytes: 1 << 20,
	})
	srv := httptest.NewServer(Handler(e))
	defer srv.Close()

	lo, hi := tileWindow(st.TilesPerSide())
	fr.Inject(faultfs.Fault{
		Kind: faultfs.KindBitFlip, FlipBit: int64(matrix.HeaderLen)*8 + 3,
		OffLo: lo, OffHi: hi,
	})

	var er errorResponse
	getJSON(t, srv.URL+"/row?from=0", http.StatusInternalServerError, &er)
	if !strings.Contains(er.Error, "corrupt") {
		t.Fatalf("error %q does not name the corruption", er.Error)
	}
	// The undamaged stripe still serves.
	if got, want := getDist(t, srv.URL, 39, 20), dist.At(39, 20); !approxEq(got, want) {
		t.Fatalf("undamaged dist = %v, want %v", got, want)
	}
	var h Health
	getJSON(t, srv.URL+"/healthz", http.StatusOK, &h)
	if h.Status != "degraded" || h.Quarantined < 1 {
		t.Fatalf("healthz = %+v, want degraded with quarantined tiles", h)
	}
}

// TestServeLatencyPastDeadlineIs504: disk latency injected past the
// per-request budget surfaces as 504, not a hung connection — the store
// checks the request context between reads.
func TestServeLatencyPastDeadlineIs504(t *testing.T) {
	// Caches off: a row-cache leader deliberately assembles detached from
	// its request context (so one aborted query cannot poison the cache
	// fill for followers); the uncached path is where the per-request
	// deadline bites the disk reads directly.
	e, _, _, fr := newFaultyEngine(t, 40, 23, true, store.Options{})
	srv := httptest.NewServer(Harden(Handler(e), HardenOptions{Timeout: 20 * time.Millisecond}))
	defer srv.Close()

	fr.Inject(faultfs.Fault{Kind: faultfs.KindLatency, Latency: 30 * time.Millisecond})
	var er errorResponse
	getJSON(t, srv.URL+"/row?from=0", http.StatusGatewayTimeout, &er)
	fr.Clear()
}
