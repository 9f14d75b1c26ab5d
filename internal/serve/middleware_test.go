package serve

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"
)

func TestHardenPanicRecoveryIs500(t *testing.T) {
	log.SetOutput(os.NewFile(0, os.DevNull)) // silence the stack dump
	defer log.SetOutput(os.Stderr)
	h := Harden(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("handler bug")
	}), HardenOptions{})
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/dist", nil))
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rr.Code)
	}
	var er errorResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &er); err != nil {
		t.Fatalf("panic response is not JSON: %v (%q)", err, rr.Body.String())
	}
}

func TestHardenAbortHandlerPassesThrough(t *testing.T) {
	h := Harden(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	}), HardenOptions{})
	defer func() {
		if p := recover(); p != http.ErrAbortHandler {
			t.Fatalf("recovered %v, want http.ErrAbortHandler to re-panic", p)
		}
	}()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/x", nil))
	t.Fatal("ErrAbortHandler was swallowed")
}

// TestHardenAdmissionSheds429: with MaxInFlight=1 and one request parked
// inside the handler, the next request is shed with 429 + Retry-After;
// /healthz bypasses admission so probes see past the overload.
func TestHardenAdmissionSheds429(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/block", func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, Health{Status: "ok"})
	})
	mux.HandleFunc("/ok", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	srv := httptest.NewServer(Harden(mux, HardenOptions{MaxInFlight: 1}))
	defer srv.Close()

	done := make(chan error, 1)
	go func() {
		resp, err := http.Get(srv.URL + "/block")
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	<-entered // the one slot is now held

	resp, err := http.Get(srv.URL + "/block")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want 1", ra)
	}

	var h Health
	getJSON(t, srv.URL+"/healthz", http.StatusOK, &h)
	if h.Status != "ok" {
		t.Fatalf("healthz under overload = %q", h.Status)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// The slot is free again: a fresh request is admitted.
	resp, err = http.Get(srv.URL + "/ok")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release status = %d, want 200", resp.StatusCode)
	}
}

// TestHardenTimeoutDeadlinesRequests: the per-request context expires
// and the handler's errStatus mapping turns it into a 504.
func TestHardenTimeoutDeadlinesRequests(t *testing.T) {
	h := Harden(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
		writeError(w, errStatus(r.Context().Err()), fmt.Errorf("read: %w", r.Context().Err()))
	}), HardenOptions{Timeout: 10 * time.Millisecond})
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/row", nil))
	if rr.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", rr.Code)
	}
}

// TestGateLoadingThenReady: before Ready the gate answers "loading" on
// /healthz and 503 elsewhere; after Ready requests route to the real
// handler.
func TestGateLoadingThenReady(t *testing.T) {
	g := NewGate()
	srv := httptest.NewServer(g)
	defer srv.Close()

	var h Health
	getJSON(t, srv.URL+"/healthz", http.StatusOK, &h)
	if h.Status != "loading" {
		t.Fatalf("gate healthz = %q, want loading", h.Status)
	}
	resp, err := http.Get(srv.URL + "/dist?from=0&to=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("gate status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("gate 503 has no Retry-After hint")
	}

	g.Ready(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, Health{Status: "ok"})
	}))
	getJSON(t, srv.URL+"/healthz", http.StatusOK, &h)
	if h.Status != "ok" {
		t.Fatalf("post-Ready healthz = %q, want ok", h.Status)
	}
}
