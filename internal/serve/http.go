package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
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
// beyond what Source already provides. Every query answer is appended
// straight into a pooled buffer by one append function per response
// shape, byte for byte what encoding/json writes for the same value, so
// an answer costs no reflection and no per-request buffer; encoding/json
// stays where strings or untrusted input are involved (the /batch request,
// /healthz, error bodies).

// appendDist appends one distance. A non-finite value is null: +Inf is
// "no path", and NaN or -Inf, which only a hand-edited edge list can
// smuggle in, have no JSON encoding either. An integral value below 2^53
// (not -0) is exact as an int64 and prints the same through AppendInt;
// any other goes through appendJSONFloat.
func appendDist(b []byte, v float64) []byte {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return append(b, "null"...)
	}
	if math.Abs(v) < 1<<53 {
		if i := int64(v); float64(i) == v && (i != 0 || !math.Signbit(v)) {
			return strconv.AppendInt(b, i, 10)
		}
	}
	return appendJSONFloat(b, v)
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

func appendInt(b []byte, v int) []byte { return strconv.AppendInt(b, int64(v), 10) }

// appendPairHead appends the fields /dist and /path answers share,
// leaving the object open: {"from":F,"to":T,"dist":D
func appendPairHead(b []byte, from, to int, d float64) []byte {
	b = append(b, `{"from":`...)
	b = appendInt(b, from)
	b = append(b, `,"to":`...)
	b = appendInt(b, to)
	b = append(b, `,"dist":`...)
	return appendDist(b, d)
}

// appendDistAnswer appends {"from":F,"to":T,"dist":D}.
func appendDistAnswer(b []byte, from, to int, d float64) []byte {
	return append(appendPairHead(b, from, to, d), '}')
}

// appendRowAnswer appends {"from":F,"n":N,"dist":[...]}; an empty row
// has no "dist" field.
func appendRowAnswer(b []byte, from int, row []float64) []byte {
	b = append(b, `{"from":`...)
	b = appendInt(b, from)
	b = append(b, `,"n":`...)
	b = appendInt(b, len(row))
	if len(row) > 0 {
		b = append(b, `,"dist":[`...)
		for i, v := range row {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendDist(b, v)
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// appendKNNAnswer appends {"from":F,"k":K,"targets":[{"to":T,"dist":D},...]};
// no targets is [].
func appendKNNAnswer(b []byte, from, k int, ts []Target) []byte {
	b = append(b, `{"from":`...)
	b = appendInt(b, from)
	b = append(b, `,"k":`...)
	b = appendInt(b, k)
	b = append(b, `,"targets":[`...)
	for i, t := range ts {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"to":`...)
		b = appendInt(b, t.To)
		b = append(b, `,"dist":`...)
		b = appendDist(b, t.Dist)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// appendPathAnswer appends {"from":F,"to":T,"dist":D,"hops":[...]}; nil
// hops (an unreachable /batch path) are null.
func appendPathAnswer(b []byte, from, to int, d float64, hops []int) []byte {
	b = append(appendPairHead(b, from, to, d), `,"hops":`...)
	if hops == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, h := range hops {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendInt(b, h)
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// appendSection opens a /batch section, "name":[ , after the object's
// opening brace or a previous section.
func appendSection(b []byte, name string) []byte {
	if b[len(b)-1] != '{' {
		b = append(b, ',')
	}
	b = append(b, '"')
	b = append(b, name...)
	return append(b, `":[`...)
}

type errorResponse struct {
	Error string `json:"error"`
}

// BatchRequest is the /batch request body: any mix of query kinds, each
// answered positionally in the response. The response carries one
// section per non-empty request section, under the same name, whose
// entry i answers query i with the single-query endpoint's shape. A path
// entry between disconnected vertices has a null dist and null hops; a
// row whose store copy is corrupt, with no recompute path wired, is
// {"from":F,"n":0,"error":"corrupt_tile"}. Limits: MaxBatchItems queries
// per request, maxBatchBody request bytes.
type BatchRequest struct {
	Dist []PairQuery `json:"dist,omitempty"`
	Row  []int       `json:"row,omitempty"`
	KNN  []KNNQuery  `json:"knn,omitempty"`
	Path []PairQuery `json:"path,omitempty"`
}

// MaxBatchItems caps the total queries of one /batch request.
const MaxBatchItems = 8192

// MaxBatchValues caps the answer values (row distances, KNN targets,
// worst-case path hops) a single /batch may produce: a few-KB request
// must not be able to amplify into a response that balloons server
// memory. 4M values, at most 25 bytes of text each, bound the one
// encoded body to roughly 100 MB per in-flight request.
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
	// Source labels the live serving mode: "store", "rows" or "matrix"
	// (see Engine.SourceKind).
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
		from, to, ok := vertexPair(w, r.URL.Query(), e.N())
		if !ok {
			return
		}
		d, err := e.Dist(r.Context(), from, to)
		if err != nil {
			writeError(w, errStatus(err), err)
			return
		}
		rb := getRespBuf()
		rb.b = appendDistAnswer(rb.b, from, to, d)
		writeAnswer(w, rb)
	})
	mux.HandleFunc("GET /row", func(w http.ResponseWriter, r *http.Request) {
		from, ok := vertexParam(w, r.URL.Query(), "from", e.N())
		if !ok {
			return
		}
		// Serve from a shared row view when the source offers one: the
		// writer only reads, so a row-cache hit is copied zero times.
		row, release, err := e.acquireRow(r.Context(), from)
		if err != nil {
			writeError(w, errStatus(err), err)
			return
		}
		rb := getRespBuf()
		rb.b = appendRowAnswer(rb.b, from, row)
		if release != nil {
			release()
		}
		writeAnswer(w, rb)
	})
	mux.HandleFunc("GET /knn", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		from, ok := vertexParam(w, q, "from", e.N())
		if !ok {
			return
		}
		k := DefaultK
		if s := q.Get("k"); s != "" {
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
		rb := getRespBuf()
		rb.b = appendKNNAnswer(rb.b, from, k, targets)
		writeAnswer(w, rb)
	})
	mux.HandleFunc("GET /path", func(w http.ResponseWriter, r *http.Request) {
		from, to, ok := vertexPair(w, r.URL.Query(), e.N())
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
		rb := getRespBuf()
		rb.b = appendPathAnswer(rb.b, from, to, p.Dist, p.Hops)
		writeAnswer(w, rb)
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

	rb := getRespBuf()
	var err error
	rb.b, err = e.appendBatch(r.Context(), rb.b, &req)
	if err != nil {
		putRespBuf(rb)
		writeError(w, errStatus(err), err)
		return
	}
	writeAnswer(w, rb)
}

// appendBatch answers a validated batch section by section, in the order
// dist, row, knn, path; a section the request left empty is absent.
func (e *Engine) appendBatch(ctx context.Context, b []byte, req *BatchRequest) ([]byte, error) {
	b = append(b, '{')
	if len(req.Dist) > 0 {
		ds, err := e.DistBatch(ctx, req.Dist)
		if err != nil {
			return b, err
		}
		b = appendSection(b, "dist")
		for i, d := range ds {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendDistAnswer(b, req.Dist[i].From, req.Dist[i].To, d)
		}
		b = append(b, ']')
	}
	if len(req.Row) > 0 {
		b = appendSection(b, "row")
		for i, from := range req.Row {
			if i > 0 {
				b = append(b, ',')
			}
			// Row views, not copies: each row is written as soon as it is
			// read and its pooled scratch (sources without RowView) goes
			// back before the next one is taken.
			row, release, err := e.acquireRow(ctx, from)
			if err != nil {
				// A quarantined tile with no recompute path fails only its
				// own item: the store's good row-bands keep answering, and
				// the client sees exactly which rows are degraded instead of
				// losing the whole batch to one bad stripe.
				if errors.Is(err, store.ErrCorruptTile) {
					b = append(b, `{"from":`...)
					b = appendInt(b, from)
					b = append(b, `,"n":0,"error":"corrupt_tile"}`...)
					continue
				}
				return b, fmt.Errorf("batch: row[%d]: %w", i, err)
			}
			b = appendRowAnswer(b, from, row)
			if release != nil {
				release()
			}
		}
		b = append(b, ']')
	}
	if len(req.KNN) > 0 {
		kts, err := e.KNNBatch(ctx, req.KNN)
		if err != nil {
			return b, err
		}
		b = appendSection(b, "knn")
		for i, ts := range kts {
			if i > 0 {
				b = append(b, ',')
			}
			k := req.KNN[i].K
			if k <= 0 {
				k = DefaultK
			}
			b = appendKNNAnswer(b, req.KNN[i].From, k, ts)
		}
		b = append(b, ']')
	}
	if len(req.Path) > 0 {
		b = appendSection(b, "path")
		for i, pq := range req.Path {
			if i > 0 {
				b = append(b, ',')
			}
			p, err := e.Path(ctx, pq.From, pq.To)
			switch {
			case errors.Is(err, ErrNoPath):
				b = appendPathAnswer(b, pq.From, pq.To, math.Inf(1), nil)
			case err != nil:
				return b, fmt.Errorf("batch: path[%d]: %w", i, err)
			default:
				b = appendPathAnswer(b, pq.From, pq.To, p.Dist, p.Hops)
			}
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

func badVertex(v, n int) bool { return v < 0 || v >= n }

func vertexParam(w http.ResponseWriter, q url.Values, name string, n int) (int, bool) {
	s := q.Get(name)
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

func vertexPair(w http.ResponseWriter, q url.Values, n int) (int, int, bool) {
	from, ok := vertexParam(w, q, "from", n)
	if !ok {
		return 0, 0, false
	}
	to, ok := vertexParam(w, q, "to", n)
	if !ok {
		return 0, 0, false
	}
	return from, to, true
}

// respBuf is a pooled response body: query answers append to b directly,
// and writeJSON's encoder writes into it through Write.
type respBuf struct{ b []byte }

func (rb *respBuf) Write(p []byte) (int, error) {
	rb.b = append(rb.b, p...)
	return len(p), nil
}

// respPool recycles response bodies; one that grew beyond maxPooledBuf
// is dropped so a single huge row batch does not pin memory.
var respPool = sync.Pool{New: func() any { return new(respBuf) }}

const maxPooledBuf = 1 << 20

func getRespBuf() *respBuf {
	rb := respPool.Get().(*respBuf)
	rb.b = rb.b[:0]
	return rb
}

func putRespBuf(rb *respBuf) {
	if cap(rb.b) <= maxPooledBuf {
		respPool.Put(rb)
	}
}

// send writes a built body with its Content-Length and recycles rb.
func send(w http.ResponseWriter, code int, rb *respBuf) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(rb.b)))
	w.WriteHeader(code)
	_, _ = w.Write(rb.b)
	putRespBuf(rb)
}

// writeAnswer sends a 200 query answer built in rb, ended by the newline
// json.Encoder writes after every value.
func writeAnswer(w http.ResponseWriter, rb *respBuf) {
	rb.b = append(rb.b, '\n')
	send(w, http.StatusOK, rb)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	rb := getRespBuf()
	enc := json.NewEncoder(rb)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		putRespBuf(rb)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = w.Write([]byte(`{"error":"encoding failure"}`))
		return
	}
	send(w, code, rb)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorResponse{Error: err.Error()})
}
