// Zero-downtime source swapping. A Swapper fronts the HTTP mux with an
// epoch pointer: every request acquires a reference on the epoch that is
// current at its first byte and keeps answering from that epoch's engine
// even if a swap lands mid-request — a response is always computed
// against exactly one generation, never a mix. Swapping installs the new
// epoch with one atomic pointer store (no lock on the query path, no
// connection draining pause); the old epoch's stores close when its last
// in-flight request releases it.
//
// The acquire/retire discipline that makes closing safe:
//
//   - an epoch starts with one reference held by the swapper itself;
//   - readers increment, then re-check the retired flag, and retry on a
//     newer epoch if it flipped — so a reader can never hold a reference
//     the closer did not observe;
//   - Swap retires the old epoch (flag first, then drops the swapper's
//     reference), so the close runs exactly once, at the moment the
//     count reaches zero, on whichever side — reader or swapper — got
//     there last.
package serve

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"

	"apspark/internal/obs"
)

// Epoch binds one immutable serving configuration: an engine, its HTTP
// handler, and the resources (store handles) to close when the last
// in-flight request drains after the epoch is retired.
type Epoch struct {
	// Generation labels the store generation this epoch serves ("" for
	// static sources); it shows up in /healthz and swap logs.
	Generation string

	engine  *Engine
	handler http.Handler
	closers []io.Closer

	refs      atomic.Int64 // swapper's own reference plus in-flight requests
	retired   atomic.Bool
	closeOnce sync.Once
}

// NewEpoch wraps an engine as a swappable epoch. closers are closed —
// in order — once the epoch has been retired and its last in-flight
// request has finished.
func NewEpoch(generation string, e *Engine, closers ...io.Closer) *Epoch {
	ep := &Epoch{Generation: generation, engine: e, handler: Handler(e), closers: closers}
	ep.refs.Store(1)
	return ep
}

// Engine returns the epoch's query engine.
func (ep *Epoch) Engine() *Engine { return ep.engine }

// release drops one reference; the zero crossing closes the epoch's
// resources. The retired flag is always set before the swapper's own
// reference is dropped, so the count can only reach zero retired.
func (ep *Epoch) release() {
	if ep.refs.Add(-1) == 0 {
		ep.closeOnce.Do(func() {
			for _, c := range ep.closers {
				_ = c.Close()
			}
		})
	}
}

// Swapper serves HTTP from whichever epoch is current, swapping epochs
// atomically under live traffic. The zero value is not usable; call
// NewSwapper.
type Swapper struct {
	cur   atomic.Pointer[Epoch]
	swaps atomic.Int64
}

// NewSwapper starts a swapper on its first epoch. first may be nil: the
// swapper answers 503 until a Swap installs one, and that Swap is not
// counted.
func NewSwapper(first *Epoch) *Swapper {
	s := &Swapper{}
	s.cur.Store(first)
	return s
}

// acquire pins the current epoch for one request. The re-check-retired
// loop closes the race against a concurrent Swap: an increment that
// landed after retirement is undone and retried on the newer epoch, so
// no request ever runs on an epoch whose close may already have been
// decided. Returns nil after Close.
func (s *Swapper) acquire() *Epoch {
	for {
		ep := s.cur.Load()
		if ep == nil {
			return nil
		}
		ep.refs.Add(1)
		if !ep.retired.Load() {
			return ep
		}
		ep.release()
	}
}

// Swap installs ep as the current epoch and retires the old one. The
// old epoch's stores close as soon as its last in-flight request
// finishes — immediately, when the server is idle.
func (s *Swapper) Swap(ep *Epoch) {
	old := s.cur.Swap(ep)
	if old != nil {
		s.swaps.Add(1)
		old.retired.Store(true)
		old.release()
	}
}

// Current returns the epoch serving new requests right now. The pointer
// is a snapshot for inspection (generation label, engine stats); it does
// not pin the epoch.
func (s *Swapper) Current() *Epoch { return s.cur.Load() }

// Swaps counts epoch swaps performed, the initial epoch excluded.
func (s *Swapper) Swaps() int64 { return s.swaps.Load() }

// Close retires the current epoch with no replacement; its resources
// close when in-flight requests drain, and subsequent requests get 503.
// Call after (or during) HTTP server shutdown.
func (s *Swapper) Close() {
	old := s.cur.Swap(nil)
	if old != nil {
		old.retired.Store(true)
		old.release()
	}
}

// Handler serves every request against the epoch that was current when
// the request arrived, holding a reference for the request's lifetime so
// a concurrent swap can never close the store out from under it.
func (s *Swapper) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ep := s.acquire()
		if ep == nil {
			writeError(w, http.StatusServiceUnavailable, fmt.Errorf("serve: shutting down"))
			return
		}
		defer ep.release()
		ep.handler.ServeHTTP(w, r)
	})
}

// RegisterMetrics exposes the swapper's counters on reg. Function-backed,
// so re-registration after a swap rebinds cleanly.
func (s *Swapper) RegisterMetrics(reg *obs.Registry) {
	reg.CounterFunc("apsp_serve_swaps_total",
		"Epochs swapped in under live traffic (promotions, rollbacks and reloads).",
		func() int64 { return s.swaps.Load() })
	reg.GaugeFunc("apsp_serve_epoch_inflight",
		"Requests currently pinned to the serving epoch.",
		func() float64 {
			ep := s.cur.Load()
			if ep == nil {
				return 0
			}
			// The swapper's own reference is not a request.
			return float64(ep.refs.Load() - 1)
		})
}
