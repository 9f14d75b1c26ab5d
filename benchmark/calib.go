package main

import (
	"math"
	"sort"
	"time"
)

// The hosts this benchmark is judged on are a few cores of a shared
// machine. Their speed moves by 15-30 % for minutes at a time and, in bad
// hours, by a factor of two or three for seconds (neighbours on the
// sibling hardware threads and in the shared caches): the same solve took
// 1.46 s in one run and 1.90 s in the next, a closed-loop second served
// 6400 requests and the next one 2000. The disturbances only ever slow
// things down, and they outlast a run, so longer runs and medians do
// nothing against them. Two things do:
//
//   - a run is cut into many short windows (one solve, or half a second
//     of load) and reports its best window: the one the host disturbed
//     least;
//   - between the windows a fixed reference computation is timed, and the
//     run's times are reported at the reference speed: measured time x
//     calNominalMs / the run's reference time.
//
// A change to the program moves the figures as before; a slow quarter of
// an hour of the host does not. Over 30 runs of each workload spanning a
// quiet and a badly disturbed hour, the figures as measured spread (as
// interquartile range over median) by 23-60 %, the reported ones by
// 5-11 %. The raw figures and the factor are printed next to the
// reported ones.

const (
	calSide   = 160     // min-plus product of two calSide x calSide blocks
	calChase  = 150_000 // dependent loads through a 4 MiB cycle
	calPasses = 3       // passes per sample; the sample is the fastest
	// calNominalMs is what one pass takes on the sizing host when nothing
	// disturbs it. It only fixes the scale of the reported figures.
	calNominalMs = 10.0
	// calQuantile of a run's samples is its reference time. Not the
	// fastest: among some seventy 10 ms samples that is a lucky moment,
	// not the speed the half-second windows saw.
	calQuantile = 0.25
)

// calInputs are the fixed inputs of the reference computation.
type calInputs struct {
	a, b, c []float64
	next    []int32
	sink    float64
}

var cal *calInputs

func newCalInputs() *calInputs {
	in := &calInputs{a: make([]float64, calSide*calSide), b: make([]float64, calSide*calSide), c: make([]float64, calSide*calSide)}
	x := uint64(88172645463325252)
	rnd := func() uint64 { x ^= x << 13; x ^= x >> 7; x ^= x << 17; return x }
	for i := range in.a {
		in.a[i], in.b[i] = float64(rnd()%1000), float64(rnd()%1000)
	}
	// One cycle through 2^20 int32: every load depends on the one before
	// and most miss the second-level cache.
	n := 1 << 20
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := int(rnd() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	in.next = make([]int32, n)
	for i := range perm {
		in.next[perm[i]] = perm[(i+1)%n]
	}
	return in
}

// pass runs the reference computation once: arithmetic over a working
// set that fits the second-level cache, then a pointer chase that does
// not. It allocates nothing.
func (in *calInputs) pass() time.Duration {
	t0 := time.Now()
	for i := range in.c {
		in.c[i] = math.Inf(1)
	}
	for i := 0; i < calSide; i++ {
		ci := in.c[i*calSide : (i+1)*calSide]
		for k := 0; k < calSide; k++ {
			a := in.a[i*calSide+k]
			for j, b := range in.b[k*calSide : (k+1)*calSide] {
				if s := a + b; s < ci[j] {
					ci[j] = s
				}
			}
		}
	}
	p := int32(0)
	for i := 0; i < calChase; i++ {
		p = in.next[p]
	}
	in.sink += in.c[7] + float64(p)
	return time.Since(t0)
}

// hostSpeed collects the reference samples of one run.
type hostSpeed struct {
	sampleMs []float64
}

// sample times calPasses passes (about 30 ms) and keeps the fastest; the
// first pass after a window finds the caches cold. Call it only while
// nothing else is being timed.
func (h *hostSpeed) sample() {
	if cal == nil {
		cal = newCalInputs()
	}
	best := math.Inf(1)
	for i := 0; i < calPasses; i++ {
		best = min(best, float64(cal.pass())/float64(time.Millisecond))
	}
	h.sampleMs = append(h.sampleMs, best)
}

// referenceMs is the run's reference time: the calQuantile of its samples.
func (h *hostSpeed) referenceMs() float64 {
	v := append([]float64(nil), h.sampleMs...)
	sort.Float64s(v)
	return percentile(v, calQuantile)
}

// factor is what a time measured in this run is multiplied by (and a
// rate divided by) to read as if the host had run at reference speed:
// below 1 when the host was slow.
func (h *hostSpeed) factor() float64 {
	if len(h.sampleMs) == 0 {
		return 1
	}
	return calNominalMs / h.referenceMs()
}
