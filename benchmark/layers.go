package main

import (
	"fmt"
	"io"
	"net/http"
	"time"
)

// socketFloorUs is the median round trip of GET /healthz, the cheapest
// handler there is: what the socket, HTTP parsing and the middleware
// cost before any query work.
func socketFloorUs(s *server) (float64, error) {
	const trips = 200
	us := make([]float64, 0, trips)
	for i := 0; i < trips; i++ {
		t0 := time.Now()
		resp, err := http.Get(s.base + "/healthz")
		if err != nil {
			return 0, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t0))/float64(time.Microsecond))
	}
	return median(us), nil
}

// serveLayerMetrics turns the child's counter movement between two
// /metrics scrapes, taken around the timed phases, into the per-layer
// figures of a serving workload.
func serveLayerMetrics(before, after map[string]float64, open, closed, bestOpen *loadResult, floorUs float64) (map[string]float64, error) {
	var firstErr error
	d := func(key string) float64 {
		v, err := delta(before, after, key)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return v
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	out := make(map[string]float64)
	var busy, handled, rttSum, rttCount float64
	for k, name := range kindNames {
		sum := d(fmt.Sprintf(`apsp_http_request_seconds_sum{endpoint="/%s"}`, name))
		count := d(fmt.Sprintf(`apsp_http_request_seconds_count{endpoint="/%s"}`, name))
		out["serve.handler_mean_us."+name] = 1e6 * ratio(sum, count)
		busy, handled = busy+sum, handled+count
		rttSum += (open.rttSum[k] + closed.rttSum[k]).Seconds()
		rttCount += float64(open.rttCount[k] + closed.rttCount[k])
	}
	out["serve.handler_busy_s"] = busy
	out["serve.socket_floor_us"] = floorUs
	// Computed, not measured: what a request costs outside the handler
	// (client, loopback, net/http on both sides).
	out["serve.net_client_us"] = 1e6 * (ratio(rttSum, rttCount) - ratio(busy, handled))
	out["serve.alloc_bytes_per_req"] = ratio(d("go_mem_alloc_bytes_total"), handled)
	out["serve.gc_cycles"] = d("go_gc_cycles_total")

	for _, cache := range []string{"row", "tile"} {
		hits := d(fmt.Sprintf(`apsp_store_cache_hits_total{cache=%q}`, cache))
		misses := d(fmt.Sprintf(`apsp_store_cache_misses_total{cache=%q}`, cache))
		out["store."+cache+"_cache_hit_ratio"] = ratio(hits, hits+misses)
	}
	for _, codec := range []string{"raw", "ivarint", "f32"} {
		out["store.decode_busy_s"] += d(fmt.Sprintf(`apsp_store_decode_seconds_sum{codec=%q}`, codec))
	}
	out["store.span_reads"] = d("apsp_store_span_reads_total")

	// The generator's validity figures are those of the window the
	// reported latency comes from.
	out["loadgen.late_p50_us"] = percentile(bestOpen.lateUs, 0.50)
	out["loadgen.late_p99_us"] = percentile(bestOpen.lateUs, 0.99)
	out["loadgen.achieved_rate_ratio"] = bestOpen.rateRatio()
	return out, firstErr
}

// spanLayerMetrics reads the span-derived per-layer figures out of a
// trace summary: per span name, the median self time it took in one rep
// or one request.
func spanLayerMetrics(sum traceSummary) map[string]float64 {
	ms, us := float64(time.Millisecond), float64(time.Microsecond)
	m := sum.MedianSelfNs
	return map[string]float64{
		"trace.coverage_ratio":        sum.Coverage,
		"span.graph_read_edgelist_ms": m["graph.read_edgelist"] / ms,
		"span.solve_ms":               (m["apspark.solve"] + m["apspark.solve_to_store"]) / ms,
		"span.store_open_ms":          m["store.open"] / ms,
		"span.first_query_ms":         m["store.first_query"] / ms,
		"span.loadgen_wait_us":        m["loadgen.wait"] / us,
		"span.client_roundtrip_us":    m["client.roundtrip"] / us,
	}
}
