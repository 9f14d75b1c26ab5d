package generation

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"apspark/internal/matrix"
	"apspark/internal/seq"
	"apspark/internal/serve"
)

// The zero-downtime acceptance test: queries hammer the serving handler
// while an update promotes a new generation through the admin listener.
// Every response must be a 200 whose row equals the OLD graph's answers
// or the NEW graph's answers in full — never an error, never a blend of
// the two epochs.

// closeTracker wraps an epoch's store so the test can observe that the
// retired epoch really closed once its in-flight readers drained.
type closeTracker struct {
	c      io.Closer
	closed *atomic.Int64
}

func (ct *closeTracker) Close() error {
	ct.closed.Add(1)
	return ct.c.Close()
}

// churnStack wires the production topology in-process: manager ->
// engine -> epoch -> swapper behind one httptest server, and the admin
// handler (with the same swap callback apsp-serve installs) behind
// another.
type churnStack struct {
	m       *Manager
	swapper *serve.Swapper
	query   *httptest.Server
	admin   *httptest.Server
	closes  atomic.Int64
}

func newChurnStack(t *testing.T, dir string) *churnStack {
	t.Helper()
	m, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cs := &churnStack{m: m}

	newEpoch := func() (*serve.Epoch, error) {
		st, g, id, err := m.OpenCurrent()
		if err != nil {
			return nil, err
		}
		eng, err := serve.NewWithOptions(st, g, serve.EngineOptions{Generation: id})
		if err != nil {
			st.Close()
			return nil, err
		}
		return serve.NewEpoch(id, eng, &closeTracker{c: st, closed: &cs.closes}), nil
	}
	first, err := newEpoch()
	if err != nil {
		t.Fatal(err)
	}
	cs.swapper = serve.NewSwapper(first)

	var swapMu sync.Mutex
	swapCurrent := func(string) error {
		swapMu.Lock()
		defer swapMu.Unlock()
		ep, err := newEpoch()
		if err != nil {
			return err
		}
		cs.swapper.Swap(ep)
		return nil
	}

	cs.query = httptest.NewServer(cs.swapper.Handler())
	cs.admin = httptest.NewServer((&AdminServer{M: m, OnSwap: swapCurrent}).Handler())
	t.Cleanup(func() {
		cs.query.Close()
		cs.admin.Close()
		cs.swapper.Close()
	})
	return cs
}

type churnRow struct {
	From int        `json:"from"`
	N    int        `json:"n"`
	Dist []*float64 `json:"dist"`
}

// rowMatches reports whether the served row equals ref's row `from`
// exactly (null encodes +Inf).
func rowMatches(rr churnRow, ref *matrix.Block) bool {
	if rr.N != ref.R || len(rr.Dist) != ref.R {
		return false
	}
	for j, v := range rr.Dist {
		want := ref.At(rr.From, j)
		if v == nil {
			if !math.IsInf(want, 1) {
				return false
			}
			continue
		}
		if math.Abs(*v-want) > 1e-9*(1+math.Abs(want)) {
			return false
		}
	}
	return true
}

func postAdmin(t *testing.T, url string, body any, wantStatus int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d: %s", url, resp.StatusCode, wantStatus, raw)
	}
	return raw
}

func servedGeneration(t *testing.T, queryURL string) string {
	t.Helper()
	resp, err := http.Get(queryURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Generation string `json:"generation"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h.Generation
}

func TestChurnZeroDowntimeSwap(t *testing.T) {
	const n, b = 48, 8
	g := twoComponentGraph(t, n)
	dir := seedDir(t, g, b)
	deltas := []Delta{{U: 0, V: 9, W: 0.25}, {U: 3, V: 4, W: 6}}
	refOld := seq.Reference(g)
	refNew := seq.Reference(applyToGraph(t, g, deltas))

	cs := newChurnStack(t, dir)

	// Reader fleet: hammer rows that the deltas dirty (component A) and
	// one provably clean row (component B), concurrently with the swap.
	froms := []int{0, 3, 4, 9, 1, n - 1}
	var (
		stop     atomic.Bool
		wg       sync.WaitGroup
		queries  atomic.Int64
		sawOld   atomic.Int64
		sawNew   atomic.Int64
		failures atomic.Int64
		firstErr atomic.Pointer[string]
	)
	fail := func(format string, args ...any) {
		failures.Add(1)
		msg := fmt.Sprintf(format, args...)
		firstErr.CompareAndSwap(nil, &msg)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				from := froms[(i+w)%len(froms)]
				resp, err := http.Get(fmt.Sprintf("%s/row?from=%d", cs.query.URL, from))
				if err != nil {
					fail("GET /row: %v", err)
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					fail("GET /row?from=%d: status %d: %s", from, resp.StatusCode, raw)
					return
				}
				var rr churnRow
				if err := json.Unmarshal(raw, &rr); err != nil {
					fail("row decode: %v", err)
					return
				}
				queries.Add(1)
				// The consistency contract: a response is the old graph's
				// row or the new graph's row, wholesale. Anything else is
				// a torn epoch.
				mOld, mNew := rowMatches(rr, refOld), rowMatches(rr, refNew)
				switch {
				case mOld:
					sawOld.Add(1)
				case mNew:
					sawNew.Add(1)
				default:
					fail("row %d matches neither the old nor the new graph", from)
					return
				}
			}
		}(w)
	}

	// Let the fleet warm up on gen-0001, then promote mid-stream.
	time.Sleep(20 * time.Millisecond)
	raw := postAdmin(t, cs.admin.URL+"/update",
		map[string]any{"deltas": deltas}, http.StatusOK)
	var res UpdateResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("update response: %v: %s", err, raw)
	}
	if res.Generation != "gen-0002" {
		t.Fatalf("promoted %q, want gen-0002", res.Generation)
	}
	// Keep querying across the swap, then drain.
	time.Sleep(20 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if failures.Load() != 0 {
		t.Fatalf("%d failed/wrong queries during churn; first: %s",
			failures.Load(), *firstErr.Load())
	}
	if queries.Load() == 0 || sawNew.Load() == 0 {
		t.Fatalf("weak coverage: %d queries, %d old-epoch, %d new-epoch",
			queries.Load(), sawOld.Load(), sawNew.Load())
	}
	t.Logf("churn: %d queries, %d old, %d new, swaps=%d",
		queries.Load(), sawOld.Load(), sawNew.Load(), cs.swapper.Swaps())

	if gen := servedGeneration(t, cs.query.URL); gen != "gen-0002" {
		t.Fatalf("healthz generation = %q, want gen-0002", gen)
	}
	// The retired gen-0001 epoch must close once its readers drain.
	deadline := time.Now().Add(2 * time.Second)
	for cs.closes.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("retired epoch's store never closed after drain")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Rollback through the admin listener restores the old answers live.
	postAdmin(t, cs.admin.URL+"/rollback", struct{}{}, http.StatusOK)
	if gen := servedGeneration(t, cs.query.URL); gen != "gen-0001" {
		t.Fatalf("healthz generation after rollback = %q, want gen-0001", gen)
	}
	resp, err := http.Get(cs.query.URL + "/row?from=0")
	if err != nil {
		t.Fatal(err)
	}
	var rr churnRow
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !rowMatches(rr, refOld) {
		t.Fatal("row 0 after rollback does not match the old graph")
	}
}

func TestChurnCorruptCandidateRejectedLive(t *testing.T) {
	const n, b = 32, 8
	g := twoComponentGraph(t, n)
	dir := seedDir(t, g, b)
	cs := newChurnStack(t, dir)
	refOld := seq.Reference(g)

	// Corrupt the candidate between build and validation: the gate must
	// quarantine it, the admin call must fail typed, and serving must
	// stay on gen-0001 throughout.
	crashHook = func(stage string) {
		if stage != "mid-validate" {
			return
		}
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

	raw := postAdmin(t, cs.admin.URL+"/update",
		map[string]any{"deltas": []Delta{{U: 0, V: 1, W: 3}}},
		http.StatusUnprocessableEntity)
	var ae struct {
		Error string `json:"error"`
		Kind  string `json:"kind"`
	}
	if err := json.Unmarshal(raw, &ae); err != nil {
		t.Fatalf("admin error decode: %v: %s", err, raw)
	}
	if ae.Kind != "validation_failed" {
		t.Fatalf("error kind = %q, want validation_failed: %s", ae.Kind, raw)
	}
	if gen := servedGeneration(t, cs.query.URL); gen != "gen-0001" {
		t.Fatalf("serving %q after rejected candidate, want gen-0001", gen)
	}
	if cs.m.Current() != "gen-0001" {
		t.Fatalf("CURRENT moved to %q on a rejected candidate", cs.m.Current())
	}
	resp, err := http.Get(cs.query.URL + "/row?from=0")
	if err != nil {
		t.Fatal(err)
	}
	var rr churnRow
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !rowMatches(rr, refOld) {
		t.Fatal("row 0 after rejected candidate does not match the old graph")
	}
	if _, err := os.Stat(filepath.Join(dir, "gen-0002"+quarantineSufix)); err != nil {
		t.Fatalf("rejected candidate not quarantined: %v", err)
	}
}
