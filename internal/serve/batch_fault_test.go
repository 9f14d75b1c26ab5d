package serve

import (
	"math"
	"net/http/httptest"
	"testing"

	"apspark/internal/faultfs"
	"apspark/internal/matrix"
	"apspark/internal/store"
)

// fbatch mirrors BatchResponse's row slice with pointer distances so the
// null-encodes-Inf convention survives the decode.
type fbatch struct {
	Row []struct {
		From  int        `json:"from"`
		N     int        `json:"n"`
		Dist  []*float64 `json:"dist"`
		Error string     `json:"error"`
	} `json:"row"`
}

// A corrupt tile with no recompute path (no graph) must not
// fail the whole /batch: the damaged row answers with a typed per-item
// error and every other item is served normally.
func TestBatchCorruptTilePerItemError(t *testing.T) {
	e, dist, st, fr := newFaultyEngine(t, 40, 11, false, store.Options{})
	srv := httptest.NewServer(Handler(e))
	defer srv.Close()

	// Flip one payload bit on every read of tile (0,0): rows 0..7 hit the
	// corruption, rows in later stripes don't.
	lo, hi := tileWindow(st.TilesPerSide())
	fr.Inject(faultfs.Fault{
		Kind: faultfs.KindBitFlip, FlipBit: int64(matrix.HeaderLen)*8 + 5,
		OffLo: lo, OffHi: hi,
	})

	var br fbatch
	postJSON(t, srv.URL+"/batch", `{"row": [0, 20, 3]}`, 200, &br)
	if len(br.Row) != 3 {
		t.Fatalf("got %d row answers, want 3", len(br.Row))
	}

	// Damaged items: typed error, no data, and no recompute attempt —
	// there is nothing to recompute from.
	for _, i := range []int{0, 2} {
		rr := br.Row[i]
		if rr.Error != "corrupt_tile" {
			t.Fatalf("row[%d].error = %q, want corrupt_tile", i, rr.Error)
		}
		if len(rr.Dist) != 0 {
			t.Fatalf("row[%d] carries %d distances alongside its error", i, len(rr.Dist))
		}
	}
	if got := e.Recomputed(); got != 0 {
		t.Fatalf("engine recomputed %d rows with no recompute source", got)
	}

	// The healthy item in the same batch is complete and correct.
	rr := br.Row[1]
	if rr.Error != "" || rr.From != 20 || rr.N != dist.R || len(rr.Dist) != dist.R {
		t.Fatalf("healthy row answer damaged: %+v", rr)
	}
	checkRowAgainst(t, rr.Dist, dist, 20)

	// A second batch still serves: the quarantined tile keeps answering
	// with its typed error (the store pins known-bad tiles rather than
	// re-reading them) and healthy rows are unaffected.
	fr.Clear()
	var again fbatch
	postJSON(t, srv.URL+"/batch", `{"row": [0, 20]}`, 200, &again)
	if again.Row[0].Error != "corrupt_tile" {
		t.Fatalf("quarantined row error = %q, want corrupt_tile", again.Row[0].Error)
	}
	checkRowAgainst(t, again.Row[1].Dist, dist, 20)
}

func checkRowAgainst(t *testing.T, got []*float64, dist *matrix.Block, from int) {
	t.Helper()
	for j, v := range got {
		want := dist.At(from, j)
		if v == nil {
			if !math.IsInf(want, 1) {
				t.Fatalf("row(%d)[%d] = null, want %v", from, j, want)
			}
			continue
		}
		if !approxEq(*v, want) {
			t.Fatalf("row(%d)[%d] = %v, want %v", from, j, *v, want)
		}
	}
}
