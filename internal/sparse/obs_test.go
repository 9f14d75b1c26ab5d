package sparse

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"apspark/internal/graph"
	"apspark/internal/obs"
)

func TestEngineRegisterMetrics(t *testing.T) {
	g, err := graph.ErdosRenyiPaper(64, 3)
	if err != nil {
		t.Fatal(err)
	}
	e := New(g)
	r := obs.NewRegistry()
	e.RegisterMetrics(r)

	s := newMemSink(64, 16)
	done, err := e.SolveTo(context.Background(), s, Options{Workers: 2})
	if err != nil || done != 64 {
		t.Fatalf("SolveTo = %d, %v", done, err)
	}
	emits := s.next
	row := make([]float64, 64)
	if err := e.SolveRowInto(5, row); err != nil {
		t.Fatal(err)
	}

	if got := e.srcSolved.Load(); got != 65 {
		t.Errorf("sources solved = %d, want 65", got)
	}
	if e.settled.Load() < 65 {
		t.Errorf("settled = %d, want >= sources", e.settled.Load())
	}
	if e.busyNs.Load() <= 0 || e.wallNs.Load() <= 0 {
		t.Errorf("busy/wall not accounted: busy=%d wall=%d", e.busyNs.Load(), e.wallNs.Load())
	}
	if d := e.panelEmit.Snapshot(); d.Count() != uint64(emits) {
		t.Errorf("panel emit count = %d, want %d", d.Count(), emits)
	}

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"apsp_sparse_sources_total 65",
		"apsp_sparse_settled_vertices_total",
		"apsp_sparse_sweep_visits_total 0", // real weights never batch
		"apsp_sparse_discarded_sweep_visits_total 0",
		"apsp_sparse_seed_seconds 0",
		"apsp_sparse_worker_busy_seconds",
		"apsp_sparse_solve_wall_seconds",
		"apsp_sparse_worker_utilization",
		"apsp_sparse_panel_emit_seconds_count 4",
		"apsp_sparse_emit_stall_seconds",
		`apsp_sparse_panel_kernel_info{impl="row"} 1`, // ErdosRenyiPaper weights are real-valued
		`apsp_sparse_panel_kernel_info{impl="batch16"} 0`,
		`apsp_sparse_panel_kernel_info{impl="batch32"} 0`,
		`apsp_sparse_batch_fallbacks_total{reason="range"} 0`,
		`apsp_sparse_batch_fallbacks_total{reason="budget"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}

	// An engine registered over it moves the panel kernel's 1 to its own
	// kernel (batch32 where this build batches integer weights).
	ie := New(intER(t, 32, 4, 3))
	ie.RegisterMetrics(r)
	buf.Reset()
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if want := `apsp_sparse_panel_kernel_info{impl="` + ie.PanelKernel() + `"} 1`; !strings.Contains(buf.String(), want) {
		t.Errorf("after re-registration: exposition missing %q\n%s", want, buf.String())
	}
}
