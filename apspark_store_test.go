package apspark

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"apspark/internal/serve"
)

// TestStoreServeEndToEnd is the acceptance run for the persistence +
// serving subsystem: solve a 2,048-vertex graph on the virtual cluster,
// persist the result as a tiled store, reopen it with a cache budget far
// smaller than the dense matrix, and serve /dist, /row, /knn and /path
// over HTTP — every answer checked against the in-memory Result, path
// hops verified edge by edge against the graph.
func TestStoreServeEndToEnd(t *testing.T) {
	n, bs := 2048, 256
	if testing.Short() {
		n, bs = 256, 32
	}
	g, err := NewErdosRenyiGraph(n, PaperEdgeProb(n), 42)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tinySession(t).Solve(context.Background(), g, WithSolver(SolverCB), WithBlockSize(bs))
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "dist.apsp")
	if err := res.WriteStore(path, bs); err != nil {
		t.Fatal(err)
	}

	// Budget: an eighth of the dense matrix — queries must page tiles in
	// and out instead of holding everything.
	full := int64(n) * int64(n) * 8
	budget := full / 8
	st, err := OpenStore(path, budget)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.N() != n || st.BlockSize() != bs {
		t.Fatalf("store shape: n=%d b=%d", st.N(), st.BlockSize())
	}

	eng, err := serve.New(st, g)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(serve.Handler(eng))
	defer srv.Close()

	sameDist := func(got *float64, want float64) bool {
		if math.IsInf(want, 1) {
			return got == nil
		}
		return got != nil && *got == want
	}

	rng := rand.New(rand.NewSource(7))
	// /dist: random pairs spread across the whole tile grid.
	for it := 0; it < 200; it++ {
		i, j := rng.Intn(n), rng.Intn(n)
		var dr struct {
			Dist *float64 `json:"dist"`
		}
		mustGet(t, srv, fmt.Sprintf("/dist?from=%d&to=%d", i, j), &dr)
		if !sameDist(dr.Dist, res.Dist.At(i, j)) {
			t.Fatalf("/dist %d->%d: got %v, want %v", i, j, dr.Dist, res.Dist.At(i, j))
		}
	}

	// /row: full rows match element-wise.
	for _, i := range []int{0, n / 3, n - 1} {
		var rr struct {
			N    int        `json:"n"`
			Dist []*float64 `json:"dist"`
		}
		mustGet(t, srv, fmt.Sprintf("/row?from=%d", i), &rr)
		if rr.N != n || len(rr.Dist) != n {
			t.Fatalf("/row shape: n=%d len=%d", rr.N, len(rr.Dist))
		}
		for j, d := range rr.Dist {
			if !sameDist(d, res.Dist.At(i, j)) {
				t.Fatalf("/row %d col %d mismatch", i, j)
			}
		}
	}

	// /knn: verified against a brute-force scan of the Result row.
	for _, i := range []int{5, n / 2} {
		const k = 10
		var kr struct {
			Targets []struct {
				To   int     `json:"to"`
				Dist float64 `json:"dist"`
			} `json:"targets"`
		}
		mustGet(t, srv, fmt.Sprintf("/knn?from=%d&k=%d", i, k), &kr)
		if len(kr.Targets) != k {
			t.Fatalf("/knn %d: %d targets", i, len(kr.Targets))
		}
		for idx, tgt := range kr.Targets {
			better := 0
			for j := 0; j < n; j++ {
				d := res.Dist.At(i, j)
				if j == i || math.IsInf(d, 1) {
					continue
				}
				if d < tgt.Dist || (d == tgt.Dist && j < tgt.To) {
					better++
				}
			}
			if better != idx {
				t.Fatalf("/knn %d rank %d: %+v has %d better targets", i, idx, tgt, better)
			}
		}
	}

	// /path: hops verified edge by edge against the graph, weights
	// summing to the Result distance.
	checked := 0
	for it := 0; it < 25; it++ {
		i, j := rng.Intn(n), rng.Intn(n)
		want := res.Dist.At(i, j)
		var pr struct {
			Dist *float64 `json:"dist"`
			Hops []int    `json:"hops"`
		}
		resp, err := http.Get(srv.URL + fmt.Sprintf("/path?from=%d&to=%d", i, j))
		if err != nil {
			t.Fatal(err)
		}
		if math.IsInf(want, 1) {
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("/path %d->%d unreachable: status %d", i, j, resp.StatusCode)
			}
			continue
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			t.Fatalf("/path %d->%d: status %d", i, j, resp.StatusCode)
		}
		err = json.NewDecoder(resp.Body).Decode(&pr)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if pr.Dist == nil || *pr.Dist != want {
			t.Fatalf("/path %d->%d: dist %v, want %v", i, j, pr.Dist, want)
		}
		if len(pr.Hops) == 0 || pr.Hops[0] != i || pr.Hops[len(pr.Hops)-1] != j {
			t.Fatalf("/path %d->%d: endpoints wrong: %v", i, j, pr.Hops)
		}
		sum := 0.0
		for h := 0; h+1 < len(pr.Hops); h++ {
			u, v := pr.Hops[h], pr.Hops[h+1]
			w := math.Inf(1)
			g.VisitAdj(u, func(nb int, nw float64) {
				if nb == v && nw < w {
					w = nw
				}
			})
			if math.IsInf(w, 1) {
				t.Fatalf("/path %d->%d: hop %d->%d is not a graph edge", i, j, u, v)
			}
			sum += w
		}
		if math.Abs(sum-want) > 1e-9*(1+want) {
			t.Fatalf("/path %d->%d: edges sum to %v, distance is %v", i, j, sum, want)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no reachable path pairs exercised")
	}

	// The byte-budget invariant held and the workload actually cycled
	// tiles through the cache.
	stats := st.Snapshot().Tiles
	if stats.BytesInUse > budget {
		t.Fatalf("cache %d bytes over budget %d", stats.BytesInUse, budget)
	}
	if stats.Evictions == 0 || stats.Hits == 0 {
		t.Fatalf("workload did not exercise the budgeted cache: %+v", stats)
	}
	t.Logf("e2e n=%d b=%d: store %.1f MiB, cache budget %.1f MiB, stats %+v",
		n, bs, float64(st.FileBytes())/(1<<20), float64(budget)/(1<<20), stats)
}

func mustGet(t *testing.T, srv *httptest.Server, path string, into any) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
}

// TestOpenStoreWithOptionsServing covers the throughput-oriented facade
// path: a row-cached store served through the engine, /healthz exposing
// both cache sections with shard detail, and /batch answering a mixed
// request — the full serving configuration apsp-serve runs with.
func TestOpenStoreWithOptionsServing(t *testing.T) {
	n, bs := 128, 16
	g, err := NewErdosRenyiGraph(n, PaperEdgeProb(n), 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tinySession(t).Solve(context.Background(), g, WithSolver(SolverCB), WithBlockSize(bs))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dist.apsp")
	if err := res.WriteStore(path, bs); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStoreWithOptions(path, StoreOptions{
		TileCacheBytes: 1 << 20,
		RowCacheBytes:  1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// The embedded throughput primitives are reachable through the facade.
	buf := make([]float64, 0, n)
	if buf, err = st.RowInto(context.Background(), 3, buf); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < n; j++ {
		want := res.Dist.At(3, j)
		if buf[j] != want && !(math.IsInf(buf[j], 1) && math.IsInf(want, 1)) {
			t.Fatalf("RowInto col %d = %v, want %v", j, buf[j], want)
		}
	}
	if view, err := st.RowView(context.Background(), 3); err != nil || len(view) != n {
		t.Fatalf("RowView: %v (len %d)", err, len(view))
	}
	if rst := st.Snapshot().Rows; rst.Hits == 0 {
		t.Fatalf("row cache unused: %+v", rst)
	}

	eng, err := serve.New(st, g)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(serve.Handler(eng))
	defer srv.Close()

	var h struct {
		Cache *struct {
			Shards []struct {
				Hits int64 `json:"hits"`
			} `json:"shards"`
		} `json:"cache"`
		RowCache *struct {
			Hits   int64 `json:"hits"`
			Shards []struct {
				Hits int64 `json:"hits"`
			} `json:"shards"`
		} `json:"row_cache"`
	}
	mustGet(t, srv, "/healthz", &h)
	if h.Cache == nil || h.RowCache == nil {
		t.Fatalf("healthz missing cache sections: %+v", h)
	}
	// 1 MiB of 2 KiB tiles or 1 KiB rows stripes as wide as it goes.
	if len(h.Cache.Shards) != 16 || len(h.RowCache.Shards) != 16 {
		t.Fatalf("healthz shard detail: tile=%d row=%d, want 16/16", len(h.Cache.Shards), len(h.RowCache.Shards))
	}

	body := fmt.Sprintf(`{"dist":[{"from":0,"to":%d}],"knn":[{"from":1,"k":3}],"path":[{"from":0,"to":%d}]}`, n-1, n/2)
	resp, err := http.Post(srv.URL+"/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/batch status %d", resp.StatusCode)
	}
	var br struct {
		Dist []struct {
			Dist *float64 `json:"dist"`
		} `json:"dist"`
		KNN []struct {
			Targets []struct {
				To int `json:"to"`
			} `json:"targets"`
		} `json:"knn"`
		Path []struct {
			Hops []int `json:"hops"`
		} `json:"path"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if len(br.Dist) != 1 || len(br.KNN) != 1 || len(br.Path) != 1 {
		t.Fatalf("batch sections: %+v", br)
	}
	want := res.Dist.At(0, n-1)
	if math.IsInf(want, 1) {
		if br.Dist[0].Dist != nil {
			t.Fatalf("batch dist = %v, want null", *br.Dist[0].Dist)
		}
	} else if br.Dist[0].Dist == nil || *br.Dist[0].Dist != want {
		t.Fatalf("batch dist = %v, want %v", br.Dist[0].Dist, want)
	}
}

// TestWriteStoreRejectsPhantom pins the API contract: projections carry
// no distances and cannot be persisted.
func TestWriteStoreRejectsPhantom(t *testing.T) {
	res, err := tinySession(t).Project(context.Background(), 1024, WithSolver(SolverCB), WithBlockSize(256))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.WriteStore(filepath.Join(t.TempDir(), "x.apsp"), 0); err == nil {
		t.Fatal("phantom result persisted")
	}
}

// TestWriteStoreDefaultBlockSize covers the blockSize <= 0 default path.
func TestWriteStoreDefaultBlockSize(t *testing.T) {
	g, err := NewErdosRenyiGraph(48, PaperEdgeProb(48), 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tinySession(t).Solve(context.Background(), g, WithSolver(SolverCB), WithBlockSize(12))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dist.apsp")
	if err := res.WriteStore(path, 0); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(path, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.N() != 48 || st.BlockSize() != 48 {
		t.Fatalf("defaulted store: n=%d b=%d, want 48/48", st.N(), st.BlockSize())
	}
	d, err := st.Dist(context.Background(), 0, 47)
	if err != nil {
		t.Fatal(err)
	}
	want := res.Dist.At(0, 47)
	if d != want && !(math.IsInf(d, 1) && math.IsInf(want, 1)) {
		t.Fatalf("Dist(0,47) = %v, want %v", d, want)
	}
}
