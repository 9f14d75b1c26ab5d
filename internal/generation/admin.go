// The admin HTTP surface of the lifecycle manager, served by apsp-serve
// on a separate admin listener (never the query port):
//
//	POST /update              {"deltas":[{"u":0,"v":5,"w":2.5},
//	                                     {"u":1,"v":9,"remove":true}]}
//	POST /rollback
//	GET  /generations
//
// /update answers with the UpdateResult of the promoted generation, 422
// with the quarantine error when validation rejects the candidate (the
// old generation keeps serving), 400 for malformed batches, 409 when
// another process holds the generation directory's lock, and 500 for
// internal build/IO failures (disk, parent store, timeouts). After a
// successful promotion or rollback the OnSwap callback runs — the hook
// the serving layer uses to open the new generation and atomically swap
// live traffic onto it.
package generation

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// maxAdminBody caps an /update request body.
const maxAdminBody = 8 << 20

// AdminServer exposes the manager's lifecycle operations over HTTP.
type AdminServer struct {
	M *Manager
	// OnSwap, when non-nil, runs after every successful promotion or
	// rollback with the new current generation id; the serving layer
	// swaps traffic in it. An error is reported to the admin caller
	// (the promotion itself is already durable on disk).
	OnSwap func(id string) error
}

// updateRequest is the /update body.
type updateRequest struct {
	Deltas []Delta `json:"deltas"`
}

type adminError struct {
	Error string `json:"error"`
	// Kind is machine-readable: "validation_failed" when a candidate was
	// quarantined, "bad_request", "no_older", "locked", or "internal".
	Kind string `json:"kind"`
}

func writeAdminJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// Handler builds the admin mux.
func (a *AdminServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /update", a.handleUpdate)
	mux.HandleFunc("POST /rollback", a.handleRollback)
	mux.HandleFunc("GET /generations", a.handleGenerations)
	return mux
}

func (a *AdminServer) handleUpdate(w http.ResponseWriter, r *http.Request) {
	var req updateRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxAdminBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeAdminJSON(w, http.StatusBadRequest, adminError{Error: fmt.Sprintf("update: %v", err), Kind: "bad_request"})
		return
	}
	if len(req.Deltas) == 0 {
		writeAdminJSON(w, http.StatusBadRequest, adminError{Error: "update: empty delta batch", Kind: "bad_request"})
		return
	}
	res, err := a.M.ApplyDeltas(r.Context(), req.Deltas)
	switch {
	case errors.Is(err, ErrValidation):
		// The candidate is quarantined on disk; CURRENT (and serving)
		// are untouched. 422: the request was well-formed, the data it
		// produced was not.
		writeAdminJSON(w, http.StatusUnprocessableEntity, adminError{Error: err.Error(), Kind: "validation_failed"})
		return
	case errors.Is(err, ErrBadDelta):
		writeAdminJSON(w, http.StatusBadRequest, adminError{Error: err.Error(), Kind: "bad_request"})
		return
	case errors.Is(err, ErrBusy):
		writeAdminJSON(w, http.StatusConflict, adminError{Error: err.Error(), Kind: "locked"})
		return
	case err != nil:
		// Build/IO failures (disk, parent store, context timeouts) are
		// the server's problem, not the client's.
		writeAdminJSON(w, http.StatusInternalServerError, adminError{Error: err.Error(), Kind: "internal"})
		return
	}
	if a.OnSwap != nil {
		if err := a.OnSwap(res.Generation); err != nil {
			writeAdminJSON(w, http.StatusInternalServerError, adminError{
				Error: fmt.Sprintf("update: %s promoted durably but serving swap failed: %v", res.Generation, err),
				Kind:  "internal",
			})
			return
		}
	}
	writeAdminJSON(w, http.StatusOK, res)
}

func (a *AdminServer) handleRollback(w http.ResponseWriter, r *http.Request) {
	id, err := a.M.Rollback()
	switch {
	case errors.Is(err, ErrNoOlder):
		writeAdminJSON(w, http.StatusConflict, adminError{Error: err.Error(), Kind: "no_older"})
		return
	case errors.Is(err, ErrBusy):
		writeAdminJSON(w, http.StatusConflict, adminError{Error: err.Error(), Kind: "locked"})
		return
	case err != nil:
		writeAdminJSON(w, http.StatusInternalServerError, adminError{Error: err.Error(), Kind: "internal"})
		return
	}
	if a.OnSwap != nil {
		if err := a.OnSwap(id); err != nil {
			writeAdminJSON(w, http.StatusInternalServerError, adminError{
				Error: fmt.Sprintf("rollback: CURRENT now %s but serving swap failed: %v", id, err),
				Kind:  "internal",
			})
			return
		}
	}
	writeAdminJSON(w, http.StatusOK, struct {
		Current string `json:"current"`
	}{Current: id})
}

func (a *AdminServer) handleGenerations(w http.ResponseWriter, r *http.Request) {
	writeAdminJSON(w, http.StatusOK, struct {
		Current     string `json:"current"`
		Generations []Info `json:"generations"`
	}{Current: a.M.Current(), Generations: a.M.Generations()})
}
