package store

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"apspark/internal/graph"
	"apspark/internal/matrix"
	"apspark/internal/obs"
	"apspark/internal/sparse"
)

// erCells is one off-diagonal 256x256 tile of the distance matrix of the
// sparse benchmark graph: G(2048, p) at average degree 16 plus a ring,
// integer weights 1..100 — the tiles a cold row of the serve_cold
// workload decodes.
var erCells = sync.OnceValues(func() (*matrix.Block, error) {
	const n, b = 2048, 256
	g, err := graph.ErdosRenyiConnected(n, graph.AvgDegreeProb(n, 16), graph.IntegerWeights(100), 42)
	if err != nil {
		return nil, err
	}
	e, row, tile := sparse.New(g), make([]float64, n), matrix.New(b, b)
	for r := 0; r < b; r++ {
		if err := e.SolveRowInto(r, row); err != nil {
			return nil, err
		}
		copy(tile.Data[r*b:(r+1)*b], row[b:2*b])
	}
	return tile, nil
})

// erTile is the ivarint payload of erCells.
var erTile = sync.OnceValues(func() ([]byte, error) {
	tile, err := erCells()
	if err != nil {
		return nil, err
	}
	enc, _ := CodecIVarint.EncodeTile(nil, tile)
	return enc, nil
})

func benchERTile(b *testing.B) []byte {
	enc, err := erTile()
	if err != nil {
		b.Fatal(err)
	}
	if enc[0] != magicIVarint {
		b.Fatal("the ER tile did not encode as ivarint")
	}
	return enc
}

// BenchmarkIVarintDecodeRow times one cold row of the ER tile: the
// checksum of its restart group, the skip over the rows above it in the
// group, and its 256 values. Rows cycle through the tile, so the skip
// averages 7.5 rows.
func BenchmarkIVarintDecodeRow(b *testing.B) {
	enc := benchERTile(b)
	c := CodecIVarint
	t, err := c.rowTable(enc, 256, 256)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]float64, 256)
	b.SetBytes(int64(len(enc)) / 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := i % 256
		off, n := c.rowSpan(t, 256, r)
		if err := c.decodeRow(t, enc[off:off+n], r, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIVarintDecodeTile times the whole ER tile into float64 cells,
// as Tile and DecodeTile decode it, without the block allocation, and into
// uint32 cells in lane order of 16 and 32, as a seeded panel reads the
// tiles above it back.
func BenchmarkIVarintDecodeTile(b *testing.B) {
	enc := benchERTile(b)
	run := func(name string, decode func() error) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(enc)))
			for i := 0; i < b.N; i++ {
				if err := decode(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	floats := make([]float64, 256*256)
	run("float64", func() error { return decodeIVarintTile(enc, 256, 256, 256, floats, false) })
	ints := make([]uint32, 256*256)
	for _, lanes := range []int{16, 32} {
		run(fmt.Sprintf("uint32_lanes%d", lanes), func() error { return decodeIVarintTile(enc, 256, 256, lanes, ints, false) })
	}
}

// BenchmarkIVarintEncodeTile times the ivarint encode of the ER tile as
// each writer reads it: float64 rows (WriteWithCodec, a float64 panel),
// uint32 rows (a streamed integer panel right of its diagonal) and uint32
// columns of a tile in lane order of 16 and 32 (a seeded panel's lower
// tiles, as they were read back).
func BenchmarkIVarintEncodeTile(b *testing.B) {
	tile, err := erCells()
	if err != nil {
		b.Fatal(err)
	}
	const e = 256
	ints := make([]uint32, e*e)
	for i, v := range tile.Data {
		ints[i] = matrix.Recast[uint32](v)
	}
	run := func(name string, encode func(dst []byte) ([]byte, bool)) {
		b.Run(name, func(b *testing.B) {
			dst, _ := encode(nil)
			b.SetBytes(8 * e * e)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var ok bool
				if dst, ok = encode(dst[:0]); !ok {
					b.Fatal("the ER tile did not encode as ivarint")
				}
			}
		})
	}
	run("float64_rows", func(dst []byte) ([]byte, bool) {
		return appendIVarint(dst, ivarintRestartRows, e, e, blockRows(tile))
	})
	run("uint32_rows", func(dst []byte) ([]byte, bool) {
		return appendIVarint(dst, ivarintRestartRows, e, e, func(r int) ([]uint32, int) { return ints[r*e:], 1 })
	})
	for _, lanes := range []int{16, 32} {
		// The transpose in lane order: row r of the tile is column r.
		lower := make([]uint32, e*e)
		for r := 0; r < e; r++ {
			for c := 0; c < e; c++ {
				lower[matrix.LaneIndex(c, r, e, e, lanes)] = ints[r*e+c]
			}
		}
		run(fmt.Sprintf("uint32_lanes%d", lanes), func(dst []byte) ([]byte, bool) {
			return appendIVarint(dst, ivarintRestartRows, e, e, func(r int) ([]uint32, int) {
				return lower[matrix.LaneIndex(0, r, e, e, lanes):], min(lanes, e-r/lanes*lanes)
			})
		})
	}
}

// BenchmarkSolveToStore is the solve of the solve_sparse_store workload
// without the edge-list read and the first query: a streamed dij solve of
// its graph — G(4096, p) at average degree 16 plus a ring, integer
// weights 1..100 — into an ivarint store in checkpoint mode, as
// Session.SolveToStore writes it (b = 256, every panel fsync'd). Beside
// ns/op it reports the engine's own split of that time, from the gauges
// RegisterMetrics exposes: seed-ms/op, the seeded panels' fills from the
// tiles read back (apsp_sparse_seed_seconds); emit-ms/op, the panel
// writes — encode, write, fsync — that run beside the next panel's solve
// (the sum of apsp_sparse_panel_emit_seconds); stall-ms/op, the time
// the solve waited on them (apsp_sparse_emit_stall_seconds); visits/op,
// the batched kernel's work (apsp_sparse_sweep_visits_total); and arcs,
// how many arcs it relaxes once its first panel has pruned the loose ones
// (apsp_sparse_kernel_arcs).
func BenchmarkSolveToStore(b *testing.B) {
	const n = 4096
	g, err := graph.ErdosRenyiConnected(n, graph.AvgDegreeProb(n, 16), graph.IntegerWeights(100), 1)
	if err != nil {
		b.Fatal(err)
	}
	path, reg := filepath.Join(b.TempDir(), "dist.apsp"), obs.NewRegistry()
	gauges := map[string]float64{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := sparse.New(g)
		e.RegisterMetrics(reg)
		w, err := NewPanelWriterWithOptions(path, n, 256, PanelWriterOptions{Checkpoint: true, Codec: CodecIVarint})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.SolveTo(context.Background(), w, sparse.Options{}); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			b.Fatal(err)
		}
		for _, line := range strings.Split(buf.String(), "\n") {
			name, value, ok := strings.Cut(line, " ")
			if v, err := strconv.ParseFloat(value, 64); ok && err == nil {
				gauges[name] += v
			}
		}
		b.StartTimer()
	}
	for unit, name := range map[string]string{
		"seed-ms/op":  "apsp_sparse_seed_seconds",
		"emit-ms/op":  "apsp_sparse_panel_emit_seconds_sum",
		"stall-ms/op": "apsp_sparse_emit_stall_seconds",
	} {
		b.ReportMetric(gauges[name]*1e3/float64(b.N), unit)
	}
	b.ReportMetric(gauges["apsp_sparse_sweep_visits_total"]/float64(b.N), "visits/op")
	b.ReportMetric(gauges["apsp_sparse_kernel_arcs"]/float64(b.N), "arcs")
}
