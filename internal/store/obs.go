package store

import (
	"apspark/internal/cache"
	"apspark/internal/obs"
)

// This file bridges the store's counters into the obs metric registry.
// The counters themselves live on the two caches and the Store;
// RegisterMetrics exposes them as function-backed registry metrics, and
// Snapshot hands the same values out JSON-shaped.

// Snapshot is a one-call view of every store health counter, each
// underlying atomic loaded exactly once — the serving layer builds
// /healthz from this so the JSON never mixes loads taken at different
// times (the old torn-view bug read Quarantined, RetriedReads and the
// cache stats through separate accessors). The values are the same ones
// RegisterMetrics exposes on /metrics.
type Snapshot struct {
	Tiles cache.Stats
	Rows  cache.Stats
	// SpanReads counts direct row-span disk reads done on behalf of row
	// assembly (they bypass the tile cache by design).
	SpanReads    int64
	Quarantined  int64
	RetriedReads int64
	// Codec is the store's preferred tile codec name and CodecRatio its
	// on-disk density win (raw bytes / encoded bytes; 1.0 for an all-raw
	// store). CodecTiles counts tiles per codec. All three are fixed at
	// open — they describe the file, not traffic.
	Codec      string
	CodecRatio float64
	CodecTiles map[string]int64
}

// Snapshot gathers all store counters in one pass.
func (s *Store) Snapshot() Snapshot {
	return Snapshot{
		Tiles:        s.tileCache.Stats(),
		Rows:         s.rowCache.Stats(),
		SpanReads:    s.spanReads.Load(),
		Quarantined:  s.quarCount.Load(),
		RetriedReads: s.retriedReads.Load(),
		Codec:        s.CodecName(),
		CodecRatio:   s.CodecRatio(),
		CodecTiles:   s.CodecTiles(),
	}
}

// RegisterMetrics exposes the store's cache and integrity counters on r:
//
//	apsp_store_cache_hits_total{cache="tile"|"row"}
//	apsp_store_cache_misses_total{cache}
//	apsp_store_cache_coalesced_total{cache}
//	apsp_store_cache_evictions_total{cache}
//	apsp_store_cache_bytes{cache} / apsp_store_cache_items{cache}
//	apsp_store_cache_budget_bytes{cache}
//	apsp_store_span_reads_total
//	apsp_store_quarantined_tiles
//	apsp_store_retried_reads_total
//	apsp_store_codec_ratio
//	apsp_store_codec_tiles{codec}
//	apsp_store_decode_seconds{codec} (histogram of cold tile and
//	  row-segment decodes)
//
// The metrics are function-backed reads of the store's own atomics, so
// registration costs nothing on the serving path. Registering a second
// store against the same registry rebinds the series to it (function
// metrics replace); give each store its own registry — or accept
// last-store-wins — when a process opens several.
func (s *Store) RegisterMetrics(r *obs.Registry) {
	for _, c := range []struct {
		name  string
		stats func() cache.Stats
	}{{"tile", s.tileCache.Stats}, {"row", s.rowCache.Stats}} {
		label := obs.Label{Key: "cache", Value: c.name}
		// Scrape-time only: a stats call takes each stripe lock for an instant.
		counter := func(get func(cache.Stats) int64) func() int64 {
			return func() int64 { return get(c.stats()) }
		}
		gauge := func(get func(cache.Stats) int64) func() float64 {
			return func() float64 { return float64(get(c.stats())) }
		}
		r.CounterFunc("apsp_store_cache_hits_total", "Cache hits by cache (tile, row).",
			counter(func(t cache.Stats) int64 { return t.Hits }), label)
		r.CounterFunc("apsp_store_cache_misses_total", "Cache misses by cache.",
			counter(func(t cache.Stats) int64 { return t.Misses }), label)
		r.CounterFunc("apsp_store_cache_coalesced_total", "Concurrent misses coalesced onto one disk read.",
			counter(func(t cache.Stats) int64 { return t.Coalesced }), label)
		r.CounterFunc("apsp_store_cache_evictions_total", "LRU evictions by cache.",
			counter(func(t cache.Stats) int64 { return t.Evictions }), label)
		r.GaugeFunc("apsp_store_cache_bytes", "Decoded bytes currently cached.",
			gauge(func(t cache.Stats) int64 { return t.BytesInUse }), label)
		r.GaugeFunc("apsp_store_cache_items", "Entries currently cached.",
			gauge(func(t cache.Stats) int64 { return int64(t.Items) }), label)
		r.GaugeFunc("apsp_store_cache_budget_bytes", "Configured cache byte budget.",
			gauge(func(t cache.Stats) int64 { return t.BytesBudget }), label)
	}
	r.CounterFunc("apsp_store_span_reads_total", "Direct row-span disk reads of any codec (bypass the tile cache).",
		func() int64 { return s.spanReads.Load() })
	r.GaugeFunc("apsp_store_quarantined_tiles", "Tiles quarantined for failing integrity checks.",
		func() float64 { return float64(s.quarCount.Load()) })
	r.CounterFunc("apsp_store_retried_reads_total", "Disk-read retries consumed by the transient-fault budget.",
		func() int64 { return s.retriedReads.Load() })
	r.GaugeFunc("apsp_store_codec_ratio", "On-disk density win: raw tile bytes / encoded tile bytes (1.0 = uncompressed).",
		func() float64 { return s.CodecRatio() })
	for id, c := range codecs {
		if c == nil {
			continue
		}
		label := obs.Label{Key: "codec", Value: c.Name()}
		r.GaugeFunc("apsp_store_codec_tiles", "Tiles per codec in the open store.",
			func() float64 { return float64(s.codecTiles[id]) }, label)
		r.RegisterHistogram("apsp_store_decode_seconds", "Cold tile and row-segment decode latency by codec.",
			s.decodeHist[id], label)
	}
}
