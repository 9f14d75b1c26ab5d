package store

import (
	"sync"
	"testing"

	"apspark/internal/graph"
	"apspark/internal/matrix"
	"apspark/internal/sparse"
)

// erTile is the ivarint payload of one off-diagonal 256x256 tile of the
// distance matrix of the sparse benchmark graph: G(2048, p) at average
// degree 16 plus a ring, integer weights 1..100 — the tiles a cold row of
// the serve_cold workload decodes.
var erTile = sync.OnceValues(func() ([]byte, error) {
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
	enc, _ := codecs[CodecIVarint].EncodeTile(nil, tile)
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
	c := codecs[CodecIVarint]
	t, err := c.RowTable(enc, 256, 256)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]float64, 256)
	b.SetBytes(int64(len(enc)) / 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := i % 256
		off, n := c.RowSpan(t, 256, r)
		if err := c.DecodeRow(t, enc[off:off+n], r, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIVarintDecodeTile times the whole ER tile into float64 cells,
// as Tile and DecodeTile decode it, without the block allocation.
func BenchmarkIVarintDecodeTile(b *testing.B) {
	enc := benchERTile(b)
	dst := make([]float64, 256*256)
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := decodeIVarintTile(enc, 256, 256, 256, dst); err != nil {
			b.Fatal(err)
		}
	}
}
