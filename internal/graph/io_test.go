package graph

import (
	"bytes"
	"strings"
	"testing"
)

func TestEdgeListRoundTrip(t *testing.T) {
	g, err := ErdosRenyi(50, 0.2, 10, 9)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Dense().Equal(g.Dense()) {
		t.Fatal("edge-list round trip changed the graph")
	}
}

func TestReadEdgeListCommentsAndBlanks(t *testing.T) {
	in := `# a comment

3 2
0 1 1.5
# another
1 2 2.5
`
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 3 || g.NumEdges() != 2 {
		t.Fatalf("n=%d m=%d", g.N, g.NumEdges())
	}
	if g.Adj(1)[1].W != 2.5 {
		t.Fatalf("weight = %v", g.Adj(1)[1].W)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := map[string]string{
		"empty":         "",
		"bad header":    "x y\n",
		"short header":  "5\n",
		"bad edge":      "2 1\n0 one 2\n",
		"short edge":    "2 1\n0 1\n",
		"count too low": "3 2\n0 1 1\n",
		"out of range":  "2 1\n0 5 1\n",
	}
	for name, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

func TestReadEdgeListZeroEdges(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("4 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 4 || g.NumEdges() != 0 {
		t.Fatalf("n=%d m=%d", g.N, g.NumEdges())
	}
}

// BenchmarkReadEdgeList reads the edge list of the sparse benchmark's
// graph: G(4096, p) at average degree 16 plus a ring, integer weights
// 1..100.
func BenchmarkReadEdgeList(b *testing.B) {
	g, err := ErdosRenyiConnected(4096, AvgDegreeProb(4096, 16), IntegerWeights(100), 1)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ReadEdgeList(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
