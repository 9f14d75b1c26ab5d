package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
	"unsafe"
)

// WriteEdgeList writes the graph in the plain-text format used throughout
// this repository (and produced by cmd/graphgen):
//
//	n m
//	u v w        (one line per undirected edge, u < v)
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d\n", g.N, g.NumEdges()); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "%d %d %g\n", e.U, e.V, e.W); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// maxLine is the longest line ReadEdgeList takes, in bytes before the
// newline; a longer one fails with bufio.ErrTooLong.
const maxLine = 1<<20 - 1

// minEdgeLine is the fewest bytes an edge line can take: "0 1 1\n", less
// the newline on the last line.
const minEdgeLine = 6

// atoiDigits is the most decimal digits plainEdge takes for a vertex id:
// any number of that many fits an int.
const atoiDigits = 9 + 9*(strconv.IntSize/64)

// ReadEdgeList parses the edge-list format written by WriteEdgeList.
// Blank lines and lines starting with '#' are ignored. Fields are
// separated by white space; a vertex id is a decimal integer and a
// weight anything strconv.ParseFloat takes. The header's edge count is
// validated against the body, and a count the input is too short to hold
// is refused before anything is allocated for it.
//
// The input is read whole and parsed in place: an edge line of plain
// decimal integers is read in one pass over its bytes, and any other line
// is split without copying and its fields converted by strconv, so the
// allocations do not grow with the number of lines.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, err
	}
	var n, m int
	var edges []Edge
	header := false
	for line := 1; len(data) > 0; line++ {
		if header {
			if e, rest, ok := plainEdge(data); ok {
				edges = append(edges, e)
				data = rest
				continue
			}
		}
		raw := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			raw, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		if len(raw) > maxLine {
			return nil, bufio.ErrTooLong
		}
		var f [4]field // a fourth field only says there are too many
		nf := splitFields(raw, &f)
		if nf == 0 || raw[f[0].lo] == '#' {
			continue
		}
		tok := func(i int) []byte { return raw[f[i].lo:f[i].hi] }
		if !header {
			if nf != 2 {
				return nil, fmt.Errorf("graph: line %d: header needs \"n m\", got %q", line, trimmed(raw))
			}
			var ok1, ok2 bool
			n, ok1 = atoi(tok(0))
			m, ok2 = atoi(tok(1))
			if !ok1 || !ok2 || n < 0 || m < 0 {
				return nil, fmt.Errorf("graph: line %d: bad header %q", line, trimmed(raw))
			}
			if most := (len(data) + 1) / minEdgeLine; m > most {
				return nil, fmt.Errorf("graph: line %d: header promises %d edges, but the %d bytes after it hold at most %d", line, m, len(data), most)
			}
			header = true
			edges = make([]Edge, 0, m)
			continue
		}
		if nf != 3 {
			return nil, fmt.Errorf("graph: line %d: edge needs \"u v w\", got %q", line, trimmed(raw))
		}
		u, ok1 := atoi(tok(0))
		v, ok2 := atoi(tok(1))
		w, ok3 := parseWeight(tok(2))
		if !ok1 || !ok2 || !ok3 {
			return nil, fmt.Errorf("graph: line %d: bad edge %q", line, trimmed(raw))
		}
		edges = append(edges, Edge{U: u, V: v, W: w})
	}
	if !header {
		return nil, fmt.Errorf("graph: empty input")
	}
	if len(edges) != m {
		return nil, fmt.Errorf("graph: header promises %d edges, body has %d", m, len(edges))
	}
	return FromEdges(n, edges)
}

// plainEdge reads the line at the start of data if it is an edge the way
// WriteEdgeList writes one of integer weight: three runs of plain decimal
// digits (at most atoiDigits for an id and 15, which a float64 holds
// exactly, for the weight) between blanks (spaces, tabs, and '\r' at the
// end). It returns the edge and the input after the line. For any other
// line it reports false, and the line is read by the general path, which
// gives it the same meaning.
func plainEdge(data []byte) (e Edge, rest []byte, ok bool) {
	u, i, ok1 := digitsAt(data, blanksAt(data, 0), atoiDigits)
	v, i, ok2 := digitsAt(data, blanksAt(data, i), atoiDigits)
	w, i, ok3 := digitsAt(data, blanksAt(data, i), 15)
	for i < len(data) && (data[i] == ' ' || data[i] == '\t' || data[i] == '\r') {
		i++
	}
	if !ok1 || !ok2 || !ok3 || i > maxLine || i < len(data) && data[i] != '\n' {
		return Edge{}, nil, false
	}
	return Edge{U: int(u), V: int(v), W: float64(w)}, data[min(i+1, len(data)):], true
}

// blanksAt is the index of the first byte at or after i in data that is
// not a space or a tab.
func blanksAt(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\t') {
		i++
	}
	return i
}

// digitsAt reads the run of decimal digits that starts at data[i],
// returning its value, the index after it, and whether it holds 1 to max
// digits.
func digitsAt(data []byte, i, max int) (v uint64, j int, ok bool) {
	for j = i; j < len(data) && data[j]-'0' <= 9; j++ {
		v = v*10 + uint64(data[j]-'0')
	}
	return v, j, j > i && j-i <= max
}

// readAll reads r to its end into one buffer, sized up front when r says
// how much it holds (a file's size, a reader's Len).
func readAll(r io.Reader) ([]byte, error) {
	size := 512
	switch s := r.(type) {
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := s.Stat(); err == nil && fi.Mode().IsRegular() {
			size += int(fi.Size())
		}
	case interface{ Len() int }:
		size += s.Len()
	}
	buf := make([]byte, 0, size)
	for {
		k, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+k]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// field is a field of a line: line[lo:hi].
type field struct{ lo, hi int }

// splitFields finds the white-space separated fields of line the way
// strings.Fields does (every Unicode space separates fields, a byte that
// is not UTF-8 does not) and stores the first len(f) of them in f,
// returning how many it stored. It stops early at a comment's first
// field and at the len(f)th field, which decide the line as they are.
func splitFields(line []byte, f *[4]field) int {
	nf, start := 0, -1
	for i := 0; i < len(line); {
		r, size := rune(line[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRune(line[i:])
		}
		space := unicode.IsSpace(r)
		if !space && start < 0 {
			start = i
		} else if space && start >= 0 {
			f[nf] = field{start, i}
			nf, start = nf+1, -1
			if nf == len(f) || line[f[0].lo] == '#' {
				return nf
			}
		}
		i += size
	}
	if start >= 0 {
		f[nf] = field{start, len(line)}
		nf++
	}
	return nf
}

// trimmed is line as an error message quotes it.
func trimmed(line []byte) string { return strings.TrimSpace(string(line)) }

// atoi is strconv.Atoi of b.
func atoi(b []byte) (int, bool) {
	v, err := strconv.Atoi(unsafeString(b))
	return v, err == nil
}

// parseWeight is strconv.ParseFloat(b, 64).
func parseWeight(b []byte) (float64, bool) {
	v, err := strconv.ParseFloat(unsafeString(b), 64)
	return v, err == nil
}

// unsafeString views b as a string without copying it. ReadEdgeList
// never writes to its input after reading it, so the view stays valid.
func unsafeString(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }
