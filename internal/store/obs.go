package store

import (
	"apspark/internal/obs"
)

// This file bridges the store's counters into the obs metric registry.
// The counters themselves live on the cache shards and the Store (they
// predate the registry); RegisterMetrics exposes them as function-backed
// registry metrics, and Stats/RowStats remain as thin compat shims over
// the same atomics for callers that want a JSON-shaped snapshot.

// Snapshot is a one-call view of every store health counter, each
// underlying atomic loaded exactly once — the serving layer builds
// /healthz from this so the JSON never mixes loads taken at different
// times (the old torn-view bug read Quarantined, RetriedReads and the
// cache stats through separate accessors). The values are the same ones
// RegisterMetrics exposes on /metrics.
type Snapshot struct {
	Tiles        CacheStats
	Rows         RowCacheStats
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
		Tiles:        s.Stats(),
		Rows:         s.RowStats(),
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
	caches := []struct {
		label  obs.Label
		shards []*shard
		budget int64
	}{
		{obs.Label{Key: "cache", Value: "tile"}, s.tileShards, s.tileBudget},
		{obs.Label{Key: "cache", Value: "row"}, s.rowShards, s.rowBudget},
	}
	for _, c := range caches {
		shards, budget := c.shards, c.budget
		// Scrape-time only: sumStats takes each shard lock for an instant.
		stat := func(get func(ShardStat) int64) func() int64 {
			return func() int64 { t, _ := sumStats(shards); return get(t) }
		}
		gauge := func(get func(ShardStat) int64) func() float64 {
			return func() float64 { t, _ := sumStats(shards); return float64(get(t)) }
		}
		r.CounterFunc("apsp_store_cache_hits_total", "Cache hits by cache (tile, row).",
			stat(func(t ShardStat) int64 { return t.Hits }), c.label)
		r.CounterFunc("apsp_store_cache_misses_total", "Cache misses by cache.",
			stat(func(t ShardStat) int64 { return t.Misses }), c.label)
		r.CounterFunc("apsp_store_cache_coalesced_total", "Concurrent misses coalesced onto one disk read.",
			stat(func(t ShardStat) int64 { return t.Coalesced }), c.label)
		r.CounterFunc("apsp_store_cache_evictions_total", "LRU evictions by cache.",
			stat(func(t ShardStat) int64 { return t.Evictions }), c.label)
		r.GaugeFunc("apsp_store_cache_bytes", "Decoded bytes currently cached.",
			gauge(func(t ShardStat) int64 { return t.BytesInUse }), c.label)
		r.GaugeFunc("apsp_store_cache_items", "Entries currently cached.",
			gauge(func(t ShardStat) int64 { return int64(t.Items) }), c.label)
		r.GaugeFunc("apsp_store_cache_budget_bytes", "Configured cache byte budget.",
			func() float64 { return float64(budget) }, c.label)
	}
	r.CounterFunc("apsp_store_span_reads_total", "Direct row-span disk reads of any codec (bypass the tile cache).",
		func() int64 { return s.spanReads.Load() })
	r.GaugeFunc("apsp_store_quarantined_tiles", "Tiles quarantined for failing integrity checks.",
		func() float64 { return float64(s.quarCount.Load()) })
	r.CounterFunc("apsp_store_retried_reads_total", "Disk-read retries consumed by the transient-fault budget.",
		func() int64 { return s.retriedReads.Load() })
	r.GaugeFunc("apsp_store_codec_ratio", "On-disk density win: raw tile bytes / encoded tile bytes (1.0 = uncompressed).",
		func() float64 { return s.CodecRatio() })
	for id := 0; id < numCodecs; id++ {
		if canonCodec[id] != byte(id) {
			continue // counted under the codec byte this build writes
		}
		label := obs.Label{Key: "codec", Value: codecName(byte(id))}
		r.GaugeFunc("apsp_store_codec_tiles", "Tiles per codec in the open store.",
			func() float64 { return float64(s.codecTiles[id]) }, label)
		r.RegisterHistogram("apsp_store_decode_seconds", "Cold tile and row-segment decode latency by codec.",
			s.decodeHist[id], label)
	}
}
