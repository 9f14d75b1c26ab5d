package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestSwapperStartsEmpty: a swapper started without an epoch answers 503
// until the first Swap installs one, and only swaps that replace an epoch
// are counted.
func TestSwapperStartsEmpty(t *testing.T) {
	g, dist := solvedGraph(t, 16, 3)
	s := NewSwapper(nil)
	status := func() int {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/dist?from=0&to=1", nil))
		return rec.Code
	}
	if code := status(); code != http.StatusServiceUnavailable {
		t.Fatalf("empty swapper answered %d, want 503", code)
	}
	s.Swap(NewEpoch("gen-0001", newEngine(t, g, dist)))
	if code := status(); code != http.StatusOK || s.Swaps() != 0 {
		t.Fatalf("after the first epoch: status %d, %d swaps counted, want 200 and 0", code, s.Swaps())
	}
	s.Swap(NewEpoch("gen-0002", newEngine(t, g, dist)))
	if s.Swaps() != 1 || s.Current().Generation != "gen-0002" {
		t.Fatalf("after a replacement: %d swaps, serving %q", s.Swaps(), s.Current().Generation)
	}
}
