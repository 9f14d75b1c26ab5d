package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// parseMetrics reads Prometheus text exposition into a map keyed by the
// series exactly as the server prints it, e.g.
// `apsp_http_request_seconds_sum{endpoint="/dist"}`. Comment lines are
// skipped; a sample line that does not end in a number is an error, so a
// changed exposition format fails loudly instead of reading as zeros.
func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// Label values may hold spaces, so the value starts after the
		// last space following the closing brace (or the bare name).
		cut := strings.LastIndexByte(line, '}') + 1
		sp := strings.IndexByte(line[cut:], ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics: no value in line %q", line)
		}
		key := line[:cut+sp]
		fields := strings.Fields(line[cut+sp:])
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics: no value in line %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %q: %w", line, err)
		}
		out[key] = v
	}
	return out, sc.Err()
}

// delta returns after[key] - before[key]; a series the server does not
// expose is an error, so a renamed counter cannot pass for "no work".
func delta(before, after map[string]float64, key string) (float64, error) {
	a, ok := after[key]
	if !ok {
		return 0, fmt.Errorf("metrics: series %s not exposed by the server", key)
	}
	return a - before[key], nil
}
