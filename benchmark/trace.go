package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files. Spans of one rep or one request share Group; Parent is the ID
// of the span that caused this one (-1 for the root of a group). Self is
// the span's duration minus the part its children cover.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Group  int    `json:"group"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer is the
// untraced run: every method is a no-op, so the timed paths carry one
// nil check and nothing else.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its ID. The callers already
// hold the timestamps (they are the latency measurement), so tracing
// reads no extra clocks.
func (t *tracer) add(name string, parent, group int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Group: group, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// fillSelfTimes sets every span's Self to its duration minus the union
// of its children's intervals (clipped to the span), so overlapping or
// overhanging children are never counted twice or beyond their parent.
func fillSelfTimes(spans []span) {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// traceSummary is what a traced run derives from its spans.
type traceSummary struct {
	// MedianSelfNs is, per span name, the median over groups of the self
	// time that name took in one group.
	MedianSelfNs map[string]float64 `json:"median_self_ns"`
	// RootNs sums the root spans' durations (the end-to-end time the
	// spans must add up to) and SelfSumNs every span's self time; the two
	// agree exactly when every child lies inside its parent.
	RootNs    int64 `json:"root_ns"`
	SelfSumNs int64 `json:"self_sum_ns"`
	// Coverage is the share of RootNs spent inside named child spans,
	// i.e. attributed to a layer rather than left as root self time.
	Coverage float64 `json:"coverage"`
}

func summarize(spans []span) traceSummary {
	fillSelfTimes(spans)
	perGroup := make(map[string]map[int]int64)
	var sum traceSummary
	var rootSelf int64
	for _, s := range spans {
		sum.SelfSumNs += s.Self
		if s.Parent < 0 {
			sum.RootNs += s.End - s.Start
			rootSelf += s.Self
		}
		if perGroup[s.Name] == nil {
			perGroup[s.Name] = make(map[int]int64)
		}
		perGroup[s.Name][s.Group] += s.Self
	}
	sum.MedianSelfNs = make(map[string]float64, len(perGroup))
	for name, groups := range perGroup {
		v := make([]float64, 0, len(groups))
		for _, ns := range groups {
			v = append(v, float64(ns))
		}
		sum.MedianSelfNs[name] = median(v)
	}
	if sum.RootNs > 0 {
		sum.Coverage = 1 - float64(rootSelf)/float64(sum.RootNs)
	}
	return sum
}

// writeTrace writes the spans and their summary as one JSON document.
func writeTrace(path, workload string, seed int64, spans []span, sum traceSummary) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(struct {
		Workload string       `json:"workload"`
		Seed     int64        `json:"seed"`
		Summary  traceSummary `json:"summary"`
		Spans    []span       `json:"spans"`
	}{workload, seed, sum, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
