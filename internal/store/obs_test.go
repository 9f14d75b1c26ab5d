package store

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"apspark/internal/matrix"
	"apspark/internal/obs"
)

func TestStoreRegisterMetrics(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/m.apsp"
	n, b := 24, 8
	m := matrix.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, float64(i*n+j))
		}
	}
	if err := WriteWithCodec(path, m, b, CodecRaw); err != nil {
		t.Fatal(err)
	}
	st, err := OpenWithOptions(path, Options{TileCacheBytes: 1 << 20, RowCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	r := obs.NewRegistry()
	st.RegisterMetrics(r)

	ctx := context.Background()
	if _, err := st.Tile(ctx, 0, 1); err != nil { // tile miss
		t.Fatal(err)
	}
	if _, err := st.Tile(ctx, 0, 1); err != nil { // tile hit
		t.Fatal(err)
	}
	if _, err := st.Row(ctx, 5); err != nil { // row miss (span reads)
		t.Fatal(err)
	}
	if _, err := st.Row(ctx, 5); err != nil { // row hit
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	snap := st.Snapshot()
	stats, rowStats := snap.Tiles, snap.Rows
	if stats.Hits == 0 || rowStats.Hits == 0 {
		t.Fatalf("expected cache hits, got tile=%+v row=%+v", stats, rowStats)
	}
	for _, want := range []string{
		`apsp_store_cache_hits_total{cache="tile"}`,
		`apsp_store_cache_hits_total{cache="row"}`,
		`apsp_store_cache_misses_total{cache="tile"}`,
		`apsp_store_cache_bytes{cache="row"}`,
		"apsp_store_span_reads_total",
		"apsp_store_quarantined_tiles 0",
		"apsp_store_retried_reads_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Registry values must agree with the Snapshot view.
	wantLine := func(name string, v int64) {
		t.Helper()
		line := name + " " + itoa(v)
		if !strings.Contains(out, line) {
			t.Errorf("exposition missing %q\n%s", line, out)
		}
	}
	wantLine(`apsp_store_cache_hits_total{cache="tile"}`, stats.Hits)
	wantLine(`apsp_store_cache_misses_total{cache="tile"}`, stats.Misses)
	wantLine(`apsp_store_cache_hits_total{cache="row"}`, rowStats.Hits)
	wantLine("apsp_store_span_reads_total", st.Snapshot().SpanReads)
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

func TestStoreSnapshotCoherent(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/m.apsp"
	n, b := 16, 8
	m := matrix.New(n, n)
	if err := WriteWithCodec(path, m, b, CodecRaw); err != nil {
		t.Fatal(err)
	}
	st, err := OpenWithOptions(path, Options{TileCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Dist(context.Background(), 0, 15); err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	if snap.Tiles.Misses == 0 {
		t.Errorf("snapshot missed the tile miss: %+v", snap.Tiles)
	}
	if snap.Quarantined != 0 || snap.RetriedReads != 0 {
		t.Errorf("unexpected fault counters: %+v", snap)
	}
	if got, want := snap.Tiles.BytesBudget, int64(1<<20); got != want {
		t.Errorf("tile budget = %d, want %d", got, want)
	}
}

// TestMetricsOneSeriesPerCodec: the codec label set the benchmark
// scrapes is exactly the codecs this build reads — raw, f32 and ivarint —
// one series each, counting tiles and timing decodes.
func TestMetricsOneSeriesPerCodec(t *testing.T) {
	path := t.TempDir() + "/ivarint.apsp"
	if err := WriteWithCodec(path, intMatrix(64, 7), 16, CodecIVarint); err != nil {
		t.Fatal(err)
	}
	st, err := OpenWithOptions(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, i := range []int{0, 40} {
		if _, err := st.Row(context.Background(), i); err != nil {
			t.Fatal(err)
		}
	}
	r := obs.NewRegistry()
	st.RegisterMetrics(r)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`apsp_store_codec_tiles{codec="ivarint"} 16`,
		`apsp_store_codec_tiles{codec="raw"} 0`,
		`apsp_store_codec_tiles{codec="f32"} 0`,
		`apsp_store_decode_seconds_count{codec="ivarint"} 8`,
		"apsp_store_span_reads_total 8",
	} {
		if strings.Count(out, want) != 1 {
			t.Errorf("exposition should hold %q exactly once\n%s", want, out)
		}
	}
	if n := strings.Count(out, `apsp_store_codec_tiles{codec=`); n != 3 {
		t.Errorf("%d codec_tiles series, want raw, ivarint, f32", n)
	}
}
