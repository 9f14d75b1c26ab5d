package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"

	"apspark/internal/graph"
	"apspark/internal/seq"
	"apspark/internal/store"
)

// newStoreServer solves a small graph, persists it through the tile
// store with a deliberately tiny cache budget, and serves it over
// httptest — the full serving stack minus the process boundary.
func newStoreServer(t *testing.T, n int, seed int64) (*httptest.Server, *graph.Graph, *store.Store) {
	t.Helper()
	g, err := graph.ErdosRenyiPaper(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	dist := seq.Reference(g)
	path := filepath.Join(t.TempDir(), "dist.apsp")
	bs := 8
	if err := store.WriteWithCodec(path, dist, bs, store.CodecRaw); err != nil {
		t.Fatal(err)
	}
	st, err := store.OpenWithOptions(path, store.Options{TileCacheBytes: 4 * 8 * int64(bs) * int64(bs)}) // 4 tiles
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	e, err := New(st, g)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(e))
	t.Cleanup(srv.Close)
	return srv, g, st
}

func getJSON(t *testing.T, url string, wantCode int, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET %s: content type %q", url, ct)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	srv, g, _ := newStoreServer(t, 40, 6)
	dist := seq.Reference(g)

	var h Health
	getJSON(t, srv.URL+"/healthz", http.StatusOK, &h)
	if h.Status != "ok" || h.N != 40 || !h.PathReady || h.Cache == nil {
		t.Fatalf("healthz = %+v", h)
	}

	// /dist across a sample of pairs, nulls for unreachable.
	for i := 0; i < 40; i += 5 {
		for j := 0; j < 40; j += 3 {
			var dr struct {
				From int      `json:"from"`
				To   int      `json:"to"`
				Dist *float64 `json:"dist"`
			}
			getJSON(t, fmt.Sprintf("%s/dist?from=%d&to=%d", srv.URL, i, j), http.StatusOK, &dr)
			want := dist.At(i, j)
			if math.IsInf(want, 1) {
				if dr.Dist != nil {
					t.Fatalf("dist %d->%d: got %v, want null", i, j, *dr.Dist)
				}
			} else if dr.Dist == nil || *dr.Dist != want {
				t.Fatalf("dist %d->%d: got %v, want %v", i, j, dr.Dist, want)
			}
		}
	}

	// /row matches element-wise.
	var rr struct {
		N    int        `json:"n"`
		Dist []*float64 `json:"dist"`
	}
	getJSON(t, srv.URL+"/row?from=7", http.StatusOK, &rr)
	if rr.N != 40 || len(rr.Dist) != 40 {
		t.Fatalf("row: n=%d len=%d", rr.N, len(rr.Dist))
	}
	for j, d := range rr.Dist {
		want := dist.At(7, j)
		if math.IsInf(want, 1) != (d == nil) || (d != nil && *d != want) {
			t.Fatalf("row[%d] mismatch", j)
		}
	}

	// /knn returns ordered targets.
	var kr struct {
		Targets []Target `json:"targets"`
	}
	getJSON(t, srv.URL+"/knn?from=7&k=5", http.StatusOK, &kr)
	if len(kr.Targets) != 5 {
		t.Fatalf("knn: %d targets", len(kr.Targets))
	}
	for i := 1; i < len(kr.Targets); i++ {
		if kr.Targets[i-1].Dist > kr.Targets[i].Dist {
			t.Fatal("knn out of order")
		}
	}

	// /path round-trips and is edge-verified.
	var pr struct {
		Dist *float64 `json:"dist"`
		Hops []int    `json:"hops"`
	}
	from, to := 0, 39
	if math.IsInf(dist.At(from, to), 1) {
		t.Fatalf("test graph n=40 seed=6 is disconnected; pick another seed")
	}
	getJSON(t, fmt.Sprintf("%s/path?from=%d&to=%d", srv.URL, from, to), http.StatusOK, &pr)
	if pr.Dist == nil || *pr.Dist != dist.At(from, to) {
		t.Fatalf("path dist = %v", pr.Dist)
	}
	verifyPath(t, g, Path{Dist: *pr.Dist, Hops: pr.Hops}, from, to, dist.At(from, to))
}

func TestHTTPErrors(t *testing.T) {
	srv, _, _ := newStoreServer(t, 20, 2)
	for _, tc := range []struct {
		url  string
		code int
	}{
		{"/dist?from=0", http.StatusBadRequest},         // missing to
		{"/dist?from=0&to=x", http.StatusBadRequest},    // non-integer
		{"/dist?from=0&to=99", http.StatusBadRequest},   // out of range
		{"/dist?from=-1&to=0", http.StatusBadRequest},   // negative
		{"/row", http.StatusBadRequest},                 // missing from
		{"/knn?from=0&k=0", http.StatusBadRequest},      // bad k
		{"/knn?from=0&k=banana", http.StatusBadRequest}, // non-integer k
		{"/nosuch", http.StatusNotFound},                // unknown route
	} {
		resp, err := http.Get(srv.URL + tc.url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("GET %s: status %d, want %d", tc.url, resp.StatusCode, tc.code)
		}
	}
}

func TestHTTPPathWithoutGraph(t *testing.T) {
	g, err := graph.ErdosRenyiPaper(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewMatrixSource(seq.Reference(g))
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(e))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/path?from=0&to=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("path without graph: status %d", resp.StatusCode)
	}
}

// TestHTTPConcurrent drives every endpoint from many goroutines against
// the tiny-cache store server; with -race this is the serving half of the
// acceptance criterion (concurrent requests safe against the block
// cache, budget never exceeded).
func TestHTTPConcurrent(t *testing.T) {
	srv, g, st := newStoreServer(t, 40, 6)
	dist := seq.Reference(g)
	client := srv.Client()

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for it := 0; it < 60; it++ {
				i, j := rng.Intn(40), rng.Intn(40)
				var url string
				switch it % 4 {
				case 0:
					url = fmt.Sprintf("%s/dist?from=%d&to=%d", srv.URL, i, j)
				case 1:
					url = fmt.Sprintf("%s/row?from=%d", srv.URL, i)
				case 2:
					url = fmt.Sprintf("%s/knn?from=%d&k=3", srv.URL, i)
				case 3:
					url = fmt.Sprintf("%s/path?from=%d&to=%d", srv.URL, i, j)
				}
				resp, err := client.Get(url)
				if err != nil {
					errs <- err
					return
				}
				if it%4 == 0 {
					var dr struct {
						Dist *float64 `json:"dist"`
					}
					if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
						resp.Body.Close()
						errs <- err
						return
					}
					want := dist.At(i, j)
					if math.IsInf(want, 1) != (dr.Dist == nil) || (dr.Dist != nil && *dr.Dist != want) {
						resp.Body.Close()
						errs <- fmt.Errorf("concurrent dist %d->%d mismatch", i, j)
						return
					}
				}
				resp.Body.Close()
				if stats := st.Snapshot().Tiles; stats.BytesInUse > stats.BytesBudget {
					errs <- fmt.Errorf("cache %d bytes over budget %d", stats.BytesInUse, stats.BytesBudget)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if stats := st.Snapshot().Tiles; stats.Hits == 0 {
		t.Fatalf("concurrent workload never hit the cache: %+v", stats)
	}
}
