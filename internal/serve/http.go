package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"

	"apspark/internal/cache"
	"apspark/internal/store"
)

// The HTTP surface of the query engine:
//
//	GET  /dist?from=I&to=J     -> {"from":I,"to":J,"dist":D}
//	GET  /row?from=I           -> {"from":I,"n":N,"dist":[...]}
//	GET  /knn?from=I&k=K       -> {"from":I,"k":K,"targets":[{"to":..,"dist":..}]}
//	GET  /path?from=I&to=J     -> {"from":I,"to":J,"dist":D,"hops":[I,..,J]}
//	POST /batch                -> many dist/row/knn/path queries, one round-trip
//	GET  /healthz              -> {"status":"ok","n":N,...}
//
// Unreachable distances serialize as JSON null (float64 +Inf has no JSON
// encoding); /path to an unreachable vertex is 404, but inside /batch an
// unreachable path is a null-dist entry so one disconnected pair cannot
// fail a thousand-query request. Handlers only read shared state, so the
// standard library's per-connection goroutines need no extra locking
// beyond what Source already provides. Small responses are staged
// through pooled buffers (no per-request buffer allocation); row-bearing
// responses additionally pay one jsonRow marshal allocation each.

// jsonDist encodes a distance, mapping +Inf ("no path") to null. NaN and
// -Inf cannot occur for well-formed inputs (negative weights are rejected
// at graph construction) but a hand-edited edge list can smuggle them in;
// they have no JSON encoding either, so they also map to null rather than
// corrupting the payload.
type jsonDist float64

func (d jsonDist) MarshalJSON() ([]byte, error) {
	if !isFiniteDist(float64(d)) {
		return []byte("null"), nil
	}
	return json.Marshal(float64(d))
}

func isFiniteDist(v float64) bool {
	return !math.IsInf(v, 0) && !math.IsNaN(v)
}

// jsonRow encodes a whole distance row in one MarshalJSON call (one
// append-only pass, +Inf as null) instead of a reflective MarshalJSON per
// element — the difference between microseconds and milliseconds on a
// large /row or /batch response.
type jsonRow []float64

func (r jsonRow) MarshalJSON() ([]byte, error) {
	out := make([]byte, 0, jsonRowEstBytes*len(r)+2)
	out = append(out, '[')
	for i, v := range r {
		if i > 0 {
			out = append(out, ',')
		}
		if !isFiniteDist(v) {
			out = append(out, "null"...)
		} else {
			out = appendJSONFloat(out, v)
		}
	}
	return append(out, ']'), nil
}

// appendJSONFloat formats v the way encoding/json does (shortest
// round-trip form, plain notation for moderate exponents).
func appendJSONFloat(out []byte, v float64) []byte {
	abs := math.Abs(v)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	out = strconv.AppendFloat(out, v, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9, mirroring encoding/json.
		if n := len(out); n >= 4 && out[n-4] == 'e' && out[n-3] == '-' && out[n-2] == '0' {
			out[n-2] = out[n-1]
			out = out[:n-1]
		}
	}
	return out
}

type distResponse struct {
	From int      `json:"from"`
	To   int      `json:"to"`
	Dist jsonDist `json:"dist"`
}

type rowResponse struct {
	From int     `json:"from"`
	N    int     `json:"n"`
	Dist jsonRow `json:"dist,omitempty"`
	// Error carries a typed per-item failure inside /batch ("corrupt_tile"
	// when the store copy of the row is quarantined and no recompute path
	// is wired); Dist is absent then. Standalone /row still fails whole.
	Error string `json:"error,omitempty"`
}

type knnTarget struct {
	To   int      `json:"to"`
	Dist jsonDist `json:"dist"`
}

type knnResponse struct {
	From    int         `json:"from"`
	K       int         `json:"k"`
	Targets []knnTarget `json:"targets"`
}

type pathResponse struct {
	From int      `json:"from"`
	To   int      `json:"to"`
	Dist jsonDist `json:"dist"`
	Hops []int    `json:"hops"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// BatchRequest is the /batch request body: any mix of query kinds, each
// answered positionally in the response. Limits: MaxBatchItems queries
// per request, maxBatchBody request bytes.
type BatchRequest struct {
	Dist []PairQuery `json:"dist,omitempty"`
	Row  []int       `json:"row,omitempty"`
	KNN  []KNNQuery  `json:"knn,omitempty"`
	Path []PairQuery `json:"path,omitempty"`
}

// BatchResponse answers a BatchRequest: result i of each slice answers
// query i of the same-named request slice. A path entry between
// disconnected vertices has a null dist and no hops.
type BatchResponse struct {
	Dist []distResponse `json:"dist,omitempty"`
	Row  []rowResponse  `json:"row,omitempty"`
	KNN  []knnResponse  `json:"knn,omitempty"`
	Path []pathResponse `json:"path,omitempty"`
}

// MaxBatchItems caps the total queries of one /batch request.
const MaxBatchItems = 8192

// MaxBatchValues caps the answer values (row distances, KNN targets,
// worst-case path hops) a single /batch may produce: a few-KB request
// must not be able to amplify into a response that balloons server
// memory. 4M values bounds the materialized response plus its one
// encoded copy to roughly 80 MB per in-flight request.
const MaxBatchValues = 4 << 20

// maxBatchBody caps the /batch request body (the response may be much
// larger; row batches dominate it).
const maxBatchBody = 1 << 20

// Health is the /healthz payload. Status is three-state: "loading"
// while the Gate still fronts the server, "ok" when serving normally,
// and "degraded" when the store has quarantined tiles — queries still
// answer (recomputed from the graph when one is loaded, see
// Engine.Recomputed) but the store file needs attention.
type Health struct {
	Status    string `json:"status"`
	N         int    `json:"n"`
	PathReady bool   `json:"path_ready"`
	// Source labels the live serving mode: "store", "oracle", "matrix",
	// with "+fallback" appended when a second source is wired behind the
	// primary (see Engine.SourceKind).
	Source string `json:"source"`
	// Generation labels the store generation being served, when the
	// server runs in generation-directory mode (see internal/generation).
	Generation string `json:"generation,omitempty"`
	// Quarantined counts store tiles sidelined after failing checksum
	// verification; any nonzero value flips Status to "degraded".
	Quarantined int64 `json:"quarantined,omitempty"`
	// SpanReads counts the store's direct row-span disk reads: the cold
	// row traffic, which bypasses the tile cache by design.
	SpanReads int64 `json:"span_reads,omitempty"`
	// RetriedReads counts store reads that failed transiently and
	// succeeded on retry — an early-warning signal for a flaky disk.
	RetriedReads int64 `json:"retried_reads,omitempty"`
	// Recomputed counts row queries answered by re-solving from the
	// graph because the store copy was corrupt.
	Recomputed int64 `json:"recomputed,omitempty"`
	// Codec names the store's preferred tile codec and CodecRatio its
	// on-disk density win (raw bytes / encoded bytes); absent for
	// non-store sources and omitted when the store is uncompressed.
	Codec      string  `json:"codec,omitempty"`
	CodecRatio float64 `json:"codec_ratio,omitempty"`
	// Cache carries the tile-cache counters (with per-shard breakdown)
	// when the engine serves from a persistent store (absent for
	// in-memory sources).
	Cache *cache.Stats `json:"cache,omitempty"`
	// RowCache carries the assembled-row cache counters for persistent
	// stores.
	RowCache *cache.Stats `json:"row_cache,omitempty"`
}

// Handler builds the HTTP mux for an engine.
func Handler(e *Engine) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// One snapshot call per source: each counter is loaded exactly
		// once and the JSON is built from that single view, so the payload
		// can no longer show a torn mix of loads taken at different
		// instants (the old code read Quarantined, RetriedReads and the
		// two cache stats through four separate accessors). The JSON field
		// names are unchanged for compat.
		h := Health{Status: "ok", N: e.N(), PathReady: e.HasGraph(), Source: e.SourceKind(), Generation: e.Generation(), Recomputed: e.Recomputed()}
		if st, ok := e.src.(*store.Store); ok {
			snap := st.Snapshot()
			h.Cache = &snap.Tiles
			h.RowCache = &snap.Rows
			h.Quarantined = snap.Quarantined
			h.SpanReads = snap.SpanReads
			h.RetriedReads = snap.RetriedReads
			if snap.Codec != "raw" {
				h.Codec = snap.Codec
				h.CodecRatio = snap.CodecRatio
			}
			if snap.Quarantined > 0 {
				h.Status = "degraded"
			}
		}
		writeJSON(w, http.StatusOK, h)
	})
	mux.HandleFunc("GET /dist", func(w http.ResponseWriter, r *http.Request) {
		from, to, ok := vertexPair(w, r, e.N())
		if !ok {
			return
		}
		d, err := e.Dist(r.Context(), from, to)
		if err != nil {
			writeError(w, errStatus(err), err)
			return
		}
		writeJSON(w, http.StatusOK, distResponse{From: from, To: to, Dist: jsonDist(d)})
	})
	mux.HandleFunc("GET /row", func(w http.ResponseWriter, r *http.Request) {
		from, ok := vertexParam(w, r, "from", e.N())
		if !ok {
			return
		}
		// Serve from a shared row view when the source offers one: the
		// encoder only reads, so a row-cache hit is copied zero times.
		row, release, err := e.acquireRow(r.Context(), from)
		if err != nil {
			writeError(w, errStatus(err), err)
			return
		}
		writeJSONSized(w, http.StatusOK, rowResponse{From: from, N: len(row), Dist: row}, jsonRowEstBytes*len(row))
		if release != nil {
			release()
		}
	})
	mux.HandleFunc("GET /knn", func(w http.ResponseWriter, r *http.Request) {
		from, ok := vertexParam(w, r, "from", e.N())
		if !ok {
			return
		}
		k := DefaultK
		if s := r.URL.Query().Get("k"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v < 1 {
				writeError(w, http.StatusBadRequest, fmt.Errorf("k must be a positive integer, got %q", s))
				return
			}
			k = v
		}
		targets, err := e.KNN(r.Context(), from, k)
		if err != nil {
			writeError(w, errStatus(err), err)
			return
		}
		writeJSON(w, http.StatusOK, knnResponse{From: from, K: k, Targets: knnTargets(targets)})
	})
	mux.HandleFunc("GET /path", func(w http.ResponseWriter, r *http.Request) {
		from, to, ok := vertexPair(w, r, e.N())
		if !ok {
			return
		}
		p, err := e.Path(r.Context(), from, to)
		switch {
		case errors.Is(err, ErrNoPath):
			writeError(w, http.StatusNotFound, err)
			return
		case errors.Is(err, ErrNoGraph):
			writeError(w, http.StatusNotImplemented, err)
			return
		case err != nil:
			writeError(w, errStatus(err), err)
			return
		}
		writeJSON(w, http.StatusOK, pathResponse{From: from, To: to, Dist: jsonDist(p.Dist), Hops: p.Hops})
	})
	mux.HandleFunc("POST /batch", func(w http.ResponseWriter, r *http.Request) {
		e.handleBatch(w, r)
	})
	return mux
}

// errStatus maps an engine/source failure to an HTTP status. A deadline
// blown inside a read (the Harden per-request timeout, or a caller
// deadline) is 504 — the server, not the request, ran out of time; a
// client that went away mid-read gets nginx's conventional 499 (the
// write is moot, but access logs stay honest); everything else — IO
// errors past the retry budget, corrupt tiles with no graph to recompute
// from — is a plain 500.
func errStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request
	default:
		return http.StatusInternalServerError
	}
}

func knnTargets(ts []Target) []knnTarget {
	out := make([]knnTarget, len(ts))
	for i, t := range ts {
		out[i] = knnTarget{To: t.To, Dist: jsonDist(t.Dist)}
	}
	return out
}

func (e *Engine) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("batch: %w", err))
		return
	}
	items := len(req.Dist) + len(req.Row) + len(req.KNN) + len(req.Path)
	if items == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("batch: empty request"))
		return
	}
	if items > MaxBatchItems {
		writeError(w, http.StatusBadRequest, fmt.Errorf("batch: %d queries, limit %d", items, MaxBatchItems))
		return
	}
	// Amplification guard: charge each section its worst-case answer
	// size (rows and paths up to n values each, KNN up to min(k, n)
	// targets) so no small request can demand an unboundedly large
	// response.
	n := e.N()
	vals := (len(req.Row) + len(req.Path)) * n
	for _, q := range req.KNN {
		k := q.K
		if k <= 0 {
			k = DefaultK
		}
		if k > n {
			k = n
		}
		vals += k
	}
	if vals > MaxBatchValues {
		writeError(w, http.StatusBadRequest, fmt.Errorf("batch: request could produce %d answer values, limit %d (split the batch)", vals, MaxBatchValues))
		return
	}
	// Validate every vertex up front so malformed batches fail fast with
	// 400 before any IO, and later engine errors can be reported as 500.
	for i, p := range req.Dist {
		if badVertex(p.From, n) || badVertex(p.To, n) {
			writeError(w, http.StatusBadRequest, fmt.Errorf("batch: dist[%d]: vertex pair (%d,%d) outside [0,%d)", i, p.From, p.To, n))
			return
		}
	}
	for i, f := range req.Row {
		if badVertex(f, n) {
			writeError(w, http.StatusBadRequest, fmt.Errorf("batch: row[%d]: vertex %d outside [0,%d)", i, f, n))
			return
		}
	}
	for i, q := range req.KNN {
		if badVertex(q.From, n) {
			writeError(w, http.StatusBadRequest, fmt.Errorf("batch: knn[%d]: vertex %d outside [0,%d)", i, q.From, n))
			return
		}
	}
	for i, p := range req.Path {
		if badVertex(p.From, n) || badVertex(p.To, n) {
			writeError(w, http.StatusBadRequest, fmt.Errorf("batch: path[%d]: vertex pair (%d,%d) outside [0,%d)", i, p.From, p.To, n))
			return
		}
	}
	if len(req.Path) > 0 && !e.HasGraph() {
		writeError(w, http.StatusNotImplemented, ErrNoGraph)
		return
	}

	ctx := r.Context()
	var resp BatchResponse
	if len(req.Dist) > 0 {
		ds, err := e.DistBatch(ctx, req.Dist)
		if err != nil {
			writeError(w, errStatus(err), err)
			return
		}
		resp.Dist = make([]distResponse, len(ds))
		for i, d := range ds {
			resp.Dist[i] = distResponse{From: req.Dist[i].From, To: req.Dist[i].To, Dist: jsonDist(d)}
		}
	}
	if len(req.Row) > 0 {
		// Row views, not copies: the encoder only reads, so cache-hit
		// rows cross from cache to wire untouched. Pooled scratch rows
		// (sources without RowView) are released after the encode.
		var releases []func()
		defer func() {
			for _, rel := range releases {
				rel()
			}
		}()
		resp.Row = make([]rowResponse, len(req.Row))
		for i, from := range req.Row {
			row, release, err := e.acquireRow(ctx, from)
			if err != nil {
				// A quarantined tile with no recompute path fails only its
				// own item: the store's good row-bands keep answering, and
				// the client sees exactly which rows are degraded instead of
				// losing the whole batch to one bad stripe.
				if errors.Is(err, store.ErrCorruptTile) {
					resp.Row[i] = rowResponse{From: from, Error: "corrupt_tile"}
					continue
				}
				writeError(w, errStatus(err), fmt.Errorf("batch: row[%d]: %w", i, err))
				return
			}
			if release != nil {
				releases = append(releases, release)
			}
			resp.Row[i] = rowResponse{From: from, N: len(row), Dist: row}
		}
	}
	if len(req.KNN) > 0 {
		kts, err := e.KNNBatch(ctx, req.KNN)
		if err != nil {
			writeError(w, errStatus(err), err)
			return
		}
		resp.KNN = make([]knnResponse, len(kts))
		for i, ts := range kts {
			k := req.KNN[i].K
			if k <= 0 {
				k = DefaultK
			}
			resp.KNN[i] = knnResponse{From: req.KNN[i].From, K: k, Targets: knnTargets(ts)}
		}
	}
	if len(req.Path) > 0 {
		resp.Path = make([]pathResponse, len(req.Path))
		for i, pq := range req.Path {
			p, err := e.Path(ctx, pq.From, pq.To)
			switch {
			case errors.Is(err, ErrNoPath):
				resp.Path[i] = pathResponse{From: pq.From, To: pq.To, Dist: jsonDist(math.Inf(1))}
			case err != nil:
				writeError(w, errStatus(err), fmt.Errorf("batch: path[%d]: %w", i, err))
				return
			default:
				resp.Path[i] = pathResponse{From: pq.From, To: pq.To, Dist: jsonDist(p.Dist), Hops: p.Hops}
			}
		}
	}
	// Exact-shape size estimate from the materialized response: every
	// section is charged for what it actually holds, so a KNN- or
	// path-heavy batch streams just like a row-heavy one.
	est := 256 + 64*len(resp.Dist)
	for i := range resp.Row {
		est += jsonRowEstBytes * len(resp.Row[i].Dist)
	}
	for i := range resp.KNN {
		est += 48 * len(resp.KNN[i].Targets)
	}
	for i := range resp.Path {
		est += 64 + 16*len(resp.Path[i].Hops)
	}
	writeJSONSized(w, http.StatusOK, resp, est)
}

func badVertex(v, n int) bool { return v < 0 || v >= n }

func vertexParam(w http.ResponseWriter, r *http.Request, name string, n int) (int, bool) {
	s := r.URL.Query().Get(name)
	if s == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing query parameter %q", name))
		return 0, false
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("parameter %q: %q is not an integer", name, s))
		return 0, false
	}
	if v < 0 || v >= n {
		writeError(w, http.StatusBadRequest, fmt.Errorf("parameter %q: vertex %d outside [0,%d)", name, v, n))
		return 0, false
	}
	return v, true
}

func vertexPair(w http.ResponseWriter, r *http.Request, n int) (int, int, bool) {
	from, ok := vertexParam(w, r, "from", n)
	if !ok {
		return 0, 0, false
	}
	to, ok := vertexParam(w, r, "to", n)
	if !ok {
		return 0, 0, false
	}
	return from, to, true
}

// encPool recycles response staging buffers; buffers that grew beyond
// maxPooledBuf are dropped so one huge row batch does not pin memory.
var encPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBuf = 1 << 20

// jsonRowEstBytes is the per-distance-value estimate used to decide
// whether a row-heavy response is worth buffering (shortest round-trip
// float64 text tops out around 24 bytes plus a separator).
const jsonRowEstBytes = 25

// writeJSONSized routes a response by its estimated encoded size: small
// ones take the pooled-buffer path (Content-Length, zero steady-state
// buffer allocation); large ones bypass the pool and encode-and-write
// directly, so a multi-megabyte row batch neither pins a pooled buffer
// nor pays a second staging copy (json.Encoder still holds one encoded
// copy transiently — MaxBatchValues bounds how large that can get).
func writeJSONSized(w http.ResponseWriter, code int, v any, estBytes int) {
	if estBytes > maxPooledBuf {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		enc := json.NewEncoder(w)
		enc.SetEscapeHTML(false)
		_ = enc.Encode(v)
		return
	}
	writeJSON(w, code, v)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	buf := encPool.Get().(*bytes.Buffer)
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		encPool.Put(buf)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = w.Write([]byte(`{"error":"encoding failure"}`))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes())
	if buf.Cap() <= maxPooledBuf {
		encPool.Put(buf)
	}
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorResponse{Error: err.Error()})
}
