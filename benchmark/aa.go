package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// quartiles returns the first and third quartile of v the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what
// the acceptance check uses. v needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	x := append([]float64(nil), v...)
	sort.Float64s(x)
	m := len(x)
	at := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return at(1), at(3)
}

// worsening is how much worse got is than base, as a share of base:
// positive is a regression in the metric's own direction.
func worsening(d metricDef, base, got float64) float64 {
	if base == 0 {
		return 0
	}
	if d.better == "higher" {
		return (base - got) / base
	}
	return (got - base) / base
}

// runAA measures the same code twice and judges the two sets against
// the bounds: each set is runs untraced runs of every workload (seeds
// seed, seed+1, ...), every run a fresh process exactly as the driver
// starts it. For each metric and workload it prints both medians, the
// second's worsening over the first and, with four runs or more, each
// set's interquartile spread; any of them beyond the metric's bound
// fails the check.
func runAA(ctx context.Context, seed int64, seconds float64, runs int, serveBin string, smokeRun bool) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// values[set][workload][metric] = one value per run
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = make(map[string]map[string][]float64)
		for _, w := range workloads {
			values[set][w.name] = make(map[string][]float64)
			for r := 0; r < runs; r++ {
				args := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed+int64(r), 10),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0", "-serve-bin", serveBin}
				if smokeRun {
					args = append(args, "-smoke")
				}
				cmd := exec.CommandContext(ctx, self, args...)
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("set %d %s run %d: %w", set+1, w.name, r+1, err)
				}
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				var rep report
				if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
					return fmt.Errorf("set %d %s run %d: result line: %w", set+1, w.name, r+1, err)
				}
				if !rep.Correct {
					return fmt.Errorf("set %d %s run %d: %d of %d operations failed", set+1, w.name, r+1, rep.Failed, rep.Attempted)
				}
				for name, mv := range rep.Metrics {
					values[set][w.name][name] = append(values[set][w.name][name], mv.Value)
				}
				fmt.Fprintf(os.Stderr, "set %d %s run %d/%d done\n", set+1, w.name, r+1, runs)
			}
		}
	}

	breaches := 0
	fmt.Printf("%-20s %-22s %14s %14s %9s %9s %9s %7s\n", "workload", "metric", "median A", "median B", "B worse", "spread A", "spread B", "bound")
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := values[0][w.name][d.name], values[1][w.name][d.name]
			med := [2]float64{median(a), median(b)} // sorts in place; run order no longer matters
			worse := worsening(d, med[0], med[1])
			spread := [2]float64{}
			if runs >= 4 {
				for i, v := range [][]float64{a, b} {
					q1, q3 := quartiles(v)
					spread[i] = (q3 - q1) / med[i]
				}
			}
			verdict := ""
			// The set-up time's spread is reported but not judged, as in
			// the acceptance check.
			if worse > d.bound || (d.name != "setup_s" && (spread[0] > d.bound || spread[1] > d.bound)) {
				verdict = "  BREACH"
				breaches++
			}
			fmt.Printf("%-20s %-22s %14.6g %14.6g %8.2f%% %8.2f%% %8.2f%% %6.1f%%%s\n",
				w.name, d.name, med[0], med[1], 100*worse, 100*spread[0], 100*spread[1], 100*d.bound, verdict)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("A/A check: %d metric x workload pairs beyond their bound", breaches)
	}
	return nil
}
