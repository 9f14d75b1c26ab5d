package bench

import (
	"fmt"

	"apspark/internal/costmodel"
	"apspark/internal/matrix"
	"time"
)

// Fig2Point is one x-position of Figure 2: the time of the sequential
// FloydWarshall kernel and of the combined MatProd+MatMin (MinPlus)
// kernel at block size b.
type Fig2Point struct {
	B              int
	FWSeconds      float64
	MinPlusSeconds float64
	// Measured*, when requested, are live wall-clock measurements of this
	// repository's Go kernels at the same block size.
	MeasuredFW      float64
	MeasuredMinPlus float64
}

// Fig2Config configures the Figure 2 sweep.
type Fig2Config struct {
	Model costmodel.KernelModel
	// Sizes defaults to the paper's 256..10240 sweep.
	Sizes []int
	// Measure additionally runs the Go kernels for sizes up to
	// MeasureCap (live wall time; the large sizes would take minutes).
	Measure    bool
	MeasureCap int
}

// Figure2 produces the kernel-scaling curve of paper Figure 2.
func Figure2(cfg Fig2Config) []Fig2Point {
	if cfg.Sizes == nil {
		for b := 256; b <= 10240; b += 512 {
			cfg.Sizes = append(cfg.Sizes, b)
		}
	}
	if cfg.MeasureCap == 0 {
		cfg.MeasureCap = 768
	}
	var out []Fig2Point
	for _, b := range cfg.Sizes {
		p := Fig2Point{
			B:              b,
			FWSeconds:      cfg.Model.FloydWarshall(b),
			MinPlusSeconds: cfg.Model.MinPlusMul(b, b, b) + cfg.Model.MatMin(b, b),
		}
		if cfg.Measure && b <= cfg.MeasureCap {
			p.MeasuredFW, p.MeasuredMinPlus = measureKernels(b)
		}
		out = append(out, p)
	}
	return out
}

func measureKernels(b int) (fw, mp float64) {
	blk := matrix.New(b, b)
	for i := range blk.Data {
		blk.Data[i] = float64(i%97) + 1
	}
	x, y, dst := blk.Clone(), blk.Clone(), blk.Clone()
	start := time.Now()
	_ = matrix.FloydWarshall(blk)
	fw = time.Since(start).Seconds()
	// The fused product-and-fold every solver runs (and the model column
	// prices as MinPlusMul + MatMin), not the reference MinPlusMul.
	start = time.Now()
	_ = matrix.MinPlusInto(x, y, dst)
	mp = time.Since(start).Seconds()
	return fw, mp
}

// Figure2Table renders the sweep.
func Figure2Table(points []Fig2Point) *Table {
	t := &Table{
		Title:   "Figure 2: sequential kernel time vs block size (model; optional live Go measurement)",
		Headers: []string{"b", "FloydWarshall", "MinPlus", "measured FW", "measured MinPlus"},
	}
	fmtOpt := func(v float64) string {
		if v == 0 {
			return "-"
		}
		return fmt.Sprintf("%.3fs", v)
	}
	for _, p := range points {
		t.Add(fmt.Sprint(p.B), FormatDuration(p.FWSeconds), FormatDuration(p.MinPlusSeconds),
			fmtOpt(p.MeasuredFW), fmtOpt(p.MeasuredMinPlus))
	}
	return t
}
