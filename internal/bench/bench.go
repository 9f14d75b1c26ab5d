// Package bench regenerates every table and figure of the paper's
// evaluation (§5) from this repository's solvers and cluster model:
//
//	Figure 2  — sequential kernel time vs. block size
//	Figure 3  — IM/CB total time vs. block size, partitioner and B,
//	            plus the RDD partition-size census (bottom panel)
//	Table 2   — per-iteration time and projected totals for all four
//	            solvers across block sizes and partitioners
//	Table 3 / Figure 5 — weak scaling of the blocked solvers against the
//	            MPI baselines, in time and Gops/core
//
// Experiments run on the virtual cluster with phantom payloads, so the
// paper-scale configurations (n = 262,144 on 1,024 cores) replay in
// seconds to minutes of host time. Every entry point takes an explicit
// configuration whose zero value means "the paper's setup", and the
// go-test benchmarks in the repository root drive scaled-down variants.
package bench

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"apspark/internal/cluster"
	"apspark/internal/core"
	"apspark/internal/costmodel"
)

// phantomRun runs s over an n-vertex phantom input on a fresh virtual
// cluster. Running out of local storage is a result the paper's figures
// print, not a failure of the sweep: it is reported as exhausted, beside
// the partial result of the units that did run.
func phantomRun(cc cluster.Config, model costmodel.KernelModel, s core.Solver, n, b int, opts core.Options) (res *core.Result, exhausted bool, err error) {
	in, err := core.NewPhantomInput(n, b)
	if err != nil {
		return nil, false, err
	}
	rc, err := core.NewContext(cc, model)
	if err != nil {
		return nil, false, err
	}
	res, err = core.Run(context.Background(), rc, s, in, opts)
	var se *cluster.ErrLocalStorage
	if errors.As(err, &se) {
		return res, true, nil
	}
	return res, false, err
}

// FormatDuration renders virtual seconds the way the paper's tables do:
// "45s", "2m23s", "1h40m", "9d16h".
func FormatDuration(sec float64) string {
	if sec < 0 {
		return "-"
	}
	d := time.Duration(sec * float64(time.Second))
	switch {
	case d >= 24*time.Hour:
		days := int(d / (24 * time.Hour))
		hours := int(d % (24 * time.Hour) / time.Hour)
		return fmt.Sprintf("%dd%dh", days, hours)
	case d >= time.Hour:
		h := int(d / time.Hour)
		m := int(d % time.Hour / time.Minute)
		return fmt.Sprintf("%dh%dm", h, m)
	case d >= time.Minute:
		m := int(d / time.Minute)
		s := int(d % time.Minute / time.Second)
		return fmt.Sprintf("%dm%ds", m, s)
	default:
		return fmt.Sprintf("%.0fs", d.Seconds())
	}
}

// Table renders rows as a fixed-width text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// Add appends a row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table.
func (t *Table) String() string {
	width := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		width[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// histogram summarizes a partition-size census.
func histogram(sizes []int) (min, max int, mean float64) {
	if len(sizes) == 0 {
		return 0, 0, 0
	}
	sorted := append([]int(nil), sizes...)
	sort.Ints(sorted)
	min, max = sorted[0], sorted[len(sorted)-1]
	total := 0
	for _, s := range sorted {
		total += s
	}
	return min, max, float64(total) / float64(len(sizes))
}
