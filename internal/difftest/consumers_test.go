package difftest

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"apspark/internal/matrix"
	"apspark/internal/serve"
	"apspark/internal/store"
)

// A subject is one producer's output on one corpus entry, as the
// consumers see it.
type subject struct {
	t   *testing.T
	e   *entry
	p   producer
	out output
	// m is the producer's matrix as its source's RowInto reads it.
	m   *matrix.Block
	eng *serve.Engine
	h   http.Handler // serve.Handler(eng)
	// rows are the sources the consumers ask about, and pairs the cells
	// they ask about one at a time: from each row, to about 16 targets.
	rows  []int
	pairs []serve.PairQuery
}

// tol is how far the producer may stray from the reference at (i, j).
func (s *subject) tol(i, j int) float64 {
	tol := 0.0
	if s.p.rounds {
		tol = s.e.bound(i, j)
	}
	if s.out.lossy != nil {
		tol += s.out.lossy(i, j) * max(math.Abs(s.e.ref.At(i, j))+tol, 1)
	}
	return tol
}

// near reports whether got agrees with the reference at (i, j).
func (s *subject) near(i, j int, got float64) bool {
	want := s.e.ref.At(i, j)
	return got == want || !math.IsInf(want, 1) && math.Abs(got-want) <= s.tol(i, j)
}

// cell fails the test unless got agrees with the reference at (i, j).
func (s *subject) cell(via string, i, j int, got float64) {
	if !s.near(i, j, got) {
		s.t.Helper()
		s.t.Fatalf("%s: d(%d,%d) = %v, reference %v (tolerance %g)", via, i, j, got, s.e.ref.At(i, j), s.tol(i, j))
	}
}

// row fails the test unless row is vertex i's distances.
func (s *subject) row(via string, i int, row []float64) {
	s.t.Helper()
	if len(row) != s.e.g.N {
		s.t.Fatalf("%s: row %d has %d cells, want %d", via, i, len(row), s.e.g.N)
	}
	for j, d := range row {
		s.cell(via, i, j, d)
	}
}

// knn is the k nearest targets of i by the producer's own row: ordered
// by distance and then vertex, without i and the unreachable ones.
func (s *subject) knn(i, k int) []serve.Target {
	var ts []serve.Target
	for j, d := range s.m.Row(i) {
		if j != i && !math.IsInf(d, 1) {
			ts = append(ts, serve.Target{To: j, Dist: d})
		}
	}
	slices.SortStableFunc(ts, func(a, b serve.Target) int { return cmp.Compare(a.Dist, b.Dist) })
	return ts[:min(k, len(ts))]
}

// path fails the test unless hops is a shortest i-j path whose weights
// add up to d: exactly on integer weights, and otherwise within the
// tolerance the engine allows each hop (more where f32 tiles round).
func (s *subject) path(via string, i, j int, d float64, hops []int) {
	s.t.Helper()
	if math.IsInf(s.m.At(i, j), 1) {
		if hops != nil {
			s.t.Fatalf("%s: path %d-%d with no path: %v", via, i, j, hops)
		}
		return
	}
	s.cell(via, i, j, d)
	if len(hops) == 0 || hops[0] != i || hops[len(hops)-1] != j {
		s.t.Fatalf("%s: path %d-%d = %v", via, i, j, hops)
	}
	sum := 0.0
	for h := 1; h < len(hops); h++ {
		w := math.Inf(1)
		s.e.g.VisitAdj(hops[h-1], func(v int, wt float64) {
			if v == hops[h] {
				w = wt
			}
		})
		if math.IsInf(w, 1) {
			s.t.Fatalf("%s: path %d-%d hops %d-%d, not an edge", via, i, j, hops[h-1], hops[h])
		}
		sum += w
	}
	rel := 0.0
	if s.e.hops != nil {
		rel = 1e-9
	}
	if s.out.lossy != nil {
		rel += 2 * store.F32DefaultMaxRelErr
	}
	if math.Abs(sum-d) > float64(len(hops))*rel*(1+d) {
		s.t.Fatalf("%s: path %d-%d weighs %v, distance %v", via, i, j, sum, d)
	}
}

// A consumer reads distances back through one surface and checks them.
type consumer struct {
	name string
	// store marks consumers that open the producer's store file.
	store bool
	check func(s *subject, via string)
}

var ctx = context.Background()

var consumers = append(storeConsumers(), []consumer{
	{"Engine.Dist", false, distVia(func(s *subject, i, j int) (float64, error) { return s.eng.Dist(ctx, i, j) })},
	{"Engine.Row", false, rowsVia(func(s *subject, i int) ([]float64, error) { return s.eng.Row(ctx, i) })},
	{"Engine.KNN", false, knnVia(func(s *subject, i, k int) ([]serve.Target, error) { return s.eng.KNN(ctx, i, k) })},
	{"Engine.Path", false, pathsVia(func(s *subject, i, j int) (float64, []int, error) {
		p, err := s.eng.Path(ctx, i, j)
		if errors.Is(err, serve.ErrNoPath) {
			err = nil
		}
		return p.Dist, p.Hops, err
	})},
	{"Engine.DistBatch", false, func(s *subject, via string) {
		ds, err := s.eng.DistBatch(ctx, s.pairs)
		s.ok(err)
		for k, q := range s.pairs {
			s.cell(via, q.From, q.To, ds[k])
		}
	}},
	{"Engine.KNNBatch", false, knnVia(func(s *subject, i, k int) ([]serve.Target, error) {
		tss, err := s.eng.KNNBatch(ctx, []serve.KNNQuery{{From: i, K: k}})
		if err != nil {
			return nil, err
		}
		return tss[0], nil
	})},
	// A request a pair is dear: between the sources only, as for paths.
	{"GET /dist", false, func(s *subject, via string) {
		for _, i := range s.rows {
			for _, j := range s.rows {
				var a struct{ Dist *float64 }
				s.ok(s.get(fmt.Sprintf("/dist?from=%d&to=%d", i, j), &a))
				s.cell(via, i, j, orInf(a.Dist))
			}
		}
	}},
	{"GET /row", false, rowsVia(func(s *subject, i int) ([]float64, error) {
		var a struct{ Dist []*float64 }
		err := s.get(fmt.Sprintf("/row?from=%d", i), &a)
		return orInfs(a.Dist), err
	})},
	{"GET /knn", false, knnVia(func(s *subject, i, k int) ([]serve.Target, error) {
		var a struct{ Targets []serve.Target }
		err := s.get(fmt.Sprintf("/knn?from=%d&k=%d", i, k), &a)
		return a.Targets, err
	})},
	{"GET /path", false, pathsVia(func(s *subject, i, j int) (float64, []int, error) {
		var a struct {
			Dist *float64
			Hops []int
		}
		err := s.get(fmt.Sprintf("/path?from=%d&to=%d", i, j), &a)
		return orInf(a.Dist), a.Hops, err
	})},
	// One request with a query of every kind.
	{"POST /batch", false, func(s *subject, via string) {
		req := serve.BatchRequest{Dist: s.pairs, Row: s.rows}
		for _, i := range s.rows {
			req.KNN = append(req.KNN, serve.KNNQuery{From: i, K: 6})
			for _, j := range s.rows {
				req.Path = append(req.Path, serve.PairQuery{From: i, To: j})
			}
		}
		var a struct {
			Dist, Path []struct {
				From, To int
				Dist     *float64
				Hops     []int
			}
			Row []struct {
				From int
				Dist []*float64
			}
			KNN []struct {
				From    int
				Targets []serve.Target
			}
		}
		body, err := json.Marshal(req)
		s.ok(err)
		s.ok(s.do(httptest.NewRequest(http.MethodPost, "/batch", bytes.NewReader(body)), &a))
		if len(a.Dist) != len(req.Dist) || len(a.Row) != len(req.Row) || len(a.KNN) != len(req.KNN) || len(a.Path) != len(req.Path) {
			s.t.Fatalf("%s: %d, %d, %d and %d answers to %d, %d, %d and %d queries", via,
				len(a.Dist), len(a.Row), len(a.KNN), len(a.Path), len(req.Dist), len(req.Row), len(req.KNN), len(req.Path))
		}
		for _, d := range a.Dist {
			s.cell(via, d.From, d.To, orInf(d.Dist))
		}
		for _, r := range a.Row {
			s.row(via, r.From, orInfs(r.Dist))
		}
		for _, k := range a.KNN {
			s.targets(via, k.From, 6, k.Targets)
		}
		for _, p := range a.Path {
			s.path(via, p.From, p.To, orInf(p.Dist), p.Hops)
		}
	}},
}...)

// storeConsumers are the store's four reads, with its row cache on and
// off: without it, Dist reads through the tile path.
func storeConsumers() []consumer {
	var cs []consumer
	for _, cached := range []bool{true, false} {
		reads := []struct {
			name string
			read func(st *store.Store, i int) ([]float64, error)
		}{
			{"Row", func(st *store.Store, i int) ([]float64, error) { return st.Row(ctx, i) }},
			{"RowInto", func(st *store.Store, i int) ([]float64, error) { return st.RowInto(ctx, i, make([]float64, 3)) }},
			{"RowView", func(st *store.Store, i int) ([]float64, error) { return st.RowView(ctx, i) }},
		}
		cs = append(cs, consumer{fmt.Sprintf("Store.Dist, row cache %v", cached), true, func(s *subject, via string) {
			st := openStore(s.t, s.out.path, cached)
			distVia(func(s *subject, i, j int) (float64, error) { return st.Dist(ctx, i, j) })(s, via)
		}})
		for _, r := range reads {
			cs = append(cs, consumer{fmt.Sprintf("Store.%s, row cache %v", r.name, cached), true, func(s *subject, via string) {
				st := openStore(s.t, s.out.path, cached)
				rowsVia(func(s *subject, i int) ([]float64, error) { return r.read(st, i) })(s, via)
			}})
		}
	}
	return cs
}

// rowsVia checks a consumer that answers whole rows.
func rowsVia(read func(s *subject, i int) ([]float64, error)) func(*subject, string) {
	return func(s *subject, via string) {
		for _, i := range s.rows {
			row, err := read(s, i)
			s.ok(err)
			s.row(via, i, row)
		}
	}
}

// knnVia checks a consumer that answers k nearest targets.
func knnVia(read func(s *subject, i, k int) ([]serve.Target, error)) func(*subject, string) {
	return func(s *subject, via string) {
		for _, i := range s.rows {
			ts, err := read(s, i, 5)
			s.ok(err)
			s.targets(via, i, 5, ts)
		}
	}
}

// pathsVia checks a consumer that answers paths, between every two of the
// sources asked about.
func pathsVia(read func(s *subject, i, j int) (float64, []int, error)) func(*subject, string) {
	return func(s *subject, via string) {
		for _, i := range s.rows {
			for _, j := range s.rows {
				d, hops, err := read(s, i, j)
				s.ok(err)
				s.path(via, i, j, d, hops)
			}
		}
	}
}

// distVia checks a consumer that answers one distance at a time.
func distVia(read func(s *subject, i, j int) (float64, error)) func(*subject, string) {
	return func(s *subject, via string) {
		for _, q := range s.pairs {
			d, err := read(s, q.From, q.To)
			s.ok(err)
			s.cell(via, q.From, q.To, d)
		}
	}
}

func (s *subject) ok(err error) {
	s.t.Helper()
	if err != nil {
		s.t.Fatal(err)
	}
}

// targets fails the test unless ts are the k nearest targets of i.
func (s *subject) targets(via string, i, k int, ts []serve.Target) {
	s.t.Helper()
	if want := s.knn(i, k); !slices.Equal(ts, want) {
		s.t.Fatalf("%s: %d nearest of %d = %v, want %v", via, k, i, ts, want)
	}
	for _, tg := range ts {
		s.cell(via, i, tg.To, tg.Dist)
	}
}

// get answers a GET of target on the engine's HTTP handler.
func (s *subject) get(target string, v any) error {
	return s.do(httptest.NewRequest(http.MethodGet, target, nil), v)
}

// do serves r on the engine's handler and parses the JSON answer into v.
// A 404 is a /path between vertices with no path, and parses as nothing.
func (s *subject) do(r *http.Request, v any) error {
	w := httptest.NewRecorder()
	s.h.ServeHTTP(w, r)
	if w.Code == http.StatusNotFound && r.URL.Path == "/path" {
		return nil
	}
	if w.Code != http.StatusOK {
		return fmt.Errorf("%s %s: %d %s", r.Method, r.URL, w.Code, w.Body)
	}
	return json.Unmarshal(w.Body.Bytes(), v)
}

// orInf reads a JSON distance, where null is no path.
func orInf(d *float64) float64 {
	if d == nil {
		return matrix.Inf
	}
	return *d
}

func orInfs(ds []*float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = orInf(d)
	}
	return out
}
