package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
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
	if w := adjOf(g, 1)[1].W; w != 2.5 {
		t.Fatalf("weight = %v", w)
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
		"NaN weight":    "3 2\n0 1 NaN\n1 2 1\n",
		// Headers of 2^62 and more: a reader that trusts them for an
		// allocation panics rather than trying to make it.
		"m past the input": "4 4611686018427387904\n0 1 1\n",
		"m past an int":    "4 9223372036854775808\n0 1 1\n",
		"n past an int32":  "4611686018427387904 1\n0 1 1\n",
	}
	for name, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

// readEdgeListOracle is the Scanner reader ReadEdgeList replaced, less
// the slice it made with the header's edge count as its capacity, which
// panicked on a header of 2^62 edges: the edges are appended instead.
func readEdgeListOracle(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var n, m int
	var edges []Edge
	header := false
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if !header {
			if len(fields) != 2 {
				return nil, fmt.Errorf("graph: line %d: header needs \"n m\", got %q", line, text)
			}
			var err1, err2 error
			n, err1 = strconv.Atoi(fields[0])
			m, err2 = strconv.Atoi(fields[1])
			if err1 != nil || err2 != nil || n < 0 || m < 0 {
				return nil, fmt.Errorf("graph: line %d: bad header %q", line, text)
			}
			header = true
			continue
		}
		if len(fields) != 3 {
			return nil, fmt.Errorf("graph: line %d: edge needs \"u v w\", got %q", line, text)
		}
		u, err1 := strconv.Atoi(fields[0])
		v, err2 := strconv.Atoi(fields[1])
		w, err3 := strconv.ParseFloat(fields[2], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("graph: line %d: bad edge %q", line, text)
		}
		edges = append(edges, Edge{U: u, V: v, W: w})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !header {
		return nil, fmt.Errorf("graph: empty input")
	}
	if len(edges) != m {
		return nil, fmt.Errorf("graph: header promises %d edges, body has %d", m, len(edges))
	}
	return FromEdges(n, edges)
}

// checkAgainstOracle fails unless ReadEdgeList and the oracle read in to
// the same graph, weights bit for bit, or fail with the same error. The
// header refusal only the new reader makes is checked for what it says:
// the oracle accepts no input it refuses.
func checkAgainstOracle(t *testing.T, in []byte) {
	t.Helper()
	got, err := ReadEdgeList(bytes.NewReader(in))
	want, werr := readEdgeListOracle(bytes.NewReader(in))
	if err != nil && strings.Contains(err.Error(), "bytes after it hold at most") {
		if werr == nil {
			t.Fatalf("%q: refused (%v), but the oracle reads it", in, err)
		}
		return
	}
	if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
		t.Fatalf("%q:\n got err %v\nwant err %v", in, err, werr)
	}
	if err != nil {
		return
	}
	gr, gc, gw := got.CSR()
	wr, wc, ww := want.CSR()
	bits := func(ws []float64) []uint64 {
		out := make([]uint64, len(ws))
		for i, w := range ws {
			out[i] = math.Float64bits(w)
		}
		return out
	}
	if got.N != want.N || !slices.Equal(gr, wr) || !slices.Equal(gc, wc) || !slices.Equal(bits(gw), bits(ww)) {
		t.Fatalf("%q: read n=%d %v %v %v, oracle n=%d %v %v %v", in, got.N, gr, gc, gw, want.N, wr, wc, ww)
	}
}

// edgeListSeeds are inputs at the edges of the format: white space of
// every kind, signs, number syntax, and headers that lie.
var edgeListSeeds = []string{
	"3 2\n0 1 1.5\n1 2 2.5\n",
	"# c\n\n  # indented comment\n3 2\n0 1 1\n# mid\n\n1 2 2",
	"3 2\r\n0 1 1\r\n1 2 2\r\n",
	"3 2\r\n0 1 1\r\r\n1 2 2\r",
	"3\t2\n0\t1\t1\n\t1 \v2\f 2 \n",
	"3 2\n+0 +1 +1\n-0 1 -0\n",
	"3 2\n0 1 -1\n1 2 1\n",
	"003 0002\n000 001 0007\n1 2 000\n",
	"3 2\n0 1 1e2\n1 2 2.5E-3\n",
	"3 2\n0 1 0x1p-2\n1 2 .5\n",
	"3 2\n0 1 1_0\n1 2 0x1_0p0\n",
	"3 2\n0 1 NaN\n1 2 1\n",
	"3 2\n0 1 Inf\n1 2 +inf\n",
	"3 2\n0 1 -Inf\n1 2 1\n",
	"3 1\n0 1 1e400\n",
	"3 1\n0 1 999999999999999\n",
	"3 1\n0 1 9999999999999999999\n",
	"3 1\n0 1 123456789012345678901234567890\n",
	"99999999999999999999 0\n",
	"-1 0\n",
	"3 -1\n",
	"4611686018427387904 0\n",
	"2147483648 0\n",
	"4 4611686018427387904\n0 1 1\n",
	"4 2\n0 1 1",
	"4 2\n0 1 1\n",
	"4 1\n0 1 1\n1 2 1\n",
	"",
	"\n\n# only comments\n",
	"5\n",
	"5 1 1\n",
	"3 1\n0 1\n",
	"3 1\n0 1 1 1\n",
	"3 1\n0 1 1 # trailing comment\n",
	"3 1\n0 1 1x\n",
	"3 1\n0 1 5,\n",
	"3 1\n0 1 5;",
	"3 1\n0 1 5\v\n",
	"3 1\n0\f1 5\n",
	"3 1\n0 x1 1\n",
	"3 1\n0 1 1\x00\n",
	"3 1\n0\u00a01\u20031\n",
	"3 1\n0 1 1\u0085\n",
	"\u00a03 1\n0 1 1\n",
	"3 1\n\xff 1 1\n",
	"3 1\n0 1 1\xc2\r\n",
	"3 1\n0 1 ١\n",
	"3 1\n0 1 5\n1 1 0\n",
	"3 2\n0 1 5\n1 0 3\n",
}

func TestReadEdgeListMatchesOracle(t *testing.T) {
	for _, in := range edgeListSeeds {
		checkAgainstOracle(t, []byte(in))
	}
	g, err := ErdosRenyi(200, 0.05, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, buf.Bytes())
	// The Scanner took lines of up to 1 MiB less one byte before the
	// newline, the last line too.
	for _, pad := range []int{1<<20 - 6, 1<<20 - 5} {
		line := "0 1 1" + strings.Repeat(" ", pad)
		checkAgainstOracle(t, []byte("2 1\n"+line+"\n"))
		checkAgainstOracle(t, []byte("2 1\n"+line))
		checkAgainstOracle(t, []byte("2 1\n"+line+"\n# after\n"))
	}
}

func FuzzReadEdgeList(f *testing.F) {
	for _, in := range edgeListSeeds {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		// A header may name any n up to 2^31-1, and both readers then
		// build a graph of n vertices: gigabytes for a ten-byte input.
		if n := headerN(in); n > 1<<16 {
			t.Skipf("header names %d vertices", n)
		}
		checkAgainstOracle(t, in)
	})
}

// headerN is the vertex count the header of the edge list in names, or 0.
func headerN(in []byte) int {
	for _, line := range strings.Split(string(in), "\n") {
		if f := strings.Fields(line); len(f) > 0 && !strings.HasPrefix(f[0], "#") {
			n, _ := strconv.Atoi(f[0])
			return n
		}
	}
	return 0
}

// TestReadEdgeListAllocations pins the reader's allocations on the
// 37,264-line edge list BenchmarkReadEdgeList reads: a constant handful
// for the input, the edges and the graph, none per line.
func TestReadEdgeListAllocations(t *testing.T) {
	text := benchmarkEdgeList(t)
	if lines := bytes.Count(text, []byte("\n")); lines < 37000 {
		t.Fatalf("edge list has %d lines, want the benchmark's 37K", lines)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ReadEdgeList(bytes.NewReader(text)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 10 {
		t.Fatalf("ReadEdgeList allocated %.0f times per call, want at most 10", allocs)
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

// benchmarkEdgeList is the edge list of the sparse benchmark's graph:
// G(4096, p) at average degree 16 plus a ring, integer weights 1..100.
func benchmarkEdgeList(tb testing.TB) []byte {
	g, err := ErdosRenyiConnected(4096, AvgDegreeProb(4096, 16), IntegerWeights(100), 1)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkReadEdgeList reads benchmarkEdgeList.
func BenchmarkReadEdgeList(b *testing.B) {
	text := benchmarkEdgeList(b)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadEdgeList(bytes.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
}
