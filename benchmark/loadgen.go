package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

type reqKind uint8

const (
	kindDist reqKind = iota
	kindKNN
	kindPath
	kindRow
	kindBatch
	numKinds
)

var kindNames = [numKinds]string{"dist", "knn", "path", "row", "batch"}

// mix is the share of each request kind in percent; it sums to 100.
type mix [numKinds]int

const (
	knnK       = 10
	batchPairs = 64
	// reqTimeout is the latency beyond which a request counts as failed.
	reqTimeout = time.Second
)

// request is one operation against the server: a GET, or a POST /batch
// of batchPairs distance pairs.
type request struct {
	kind     reqKind
	from, to int
	pairs    [][2]int
	url      string
	body     []byte
}

// wire is the request as sent, for the determinism tests.
func (r *request) wire() string {
	if r.kind == kindBatch {
		return "POST " + r.url + " " + string(r.body)
	}
	return "GET " + r.url
}

// generator draws the request stream of one workload from a seed. The
// server never sees the seed, only the requests.
type generator struct {
	n    int
	mix  mix
	rng  *rand.Rand
	zipf *rand.Zipf // nil: uniform sources
	perm []int      // popularity rank -> vertex
}

// sourcePerm maps popularity ranks to vertices; it depends on the seed
// alone so every stream of a run agrees on which sources are hot.
func sourcePerm(n int, seed int64) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

// newGenerator builds stream number stream of a run: streams share the
// popularity permutation and differ in their random sequence. zipfS > 1
// draws sources zipf(s) over perm, 0 draws them uniformly.
func newGenerator(n int, m mix, zipfS float64, perm []int, seed int64, stream int) *generator {
	g := &generator{n: n, mix: m, perm: perm, rng: rand.New(rand.NewSource(seed*7919 + int64(stream) + 1))}
	if zipfS > 1 {
		g.zipf = rand.NewZipf(g.rng, zipfS, 1, uint64(n-1))
	}
	return g
}

func (g *generator) source() int {
	if g.zipf != nil {
		return g.perm[g.zipf.Uint64()]
	}
	return g.rng.Intn(g.n)
}

func (g *generator) next() request {
	roll, kind := g.rng.Intn(100), reqKind(0)
	for acc := g.mix[0]; roll >= acc; acc += g.mix[kind] {
		kind++
	}
	r := request{kind: kind, from: g.source(), to: g.rng.Intn(g.n)}
	switch kind {
	case kindDist:
		r.url = fmt.Sprintf("/dist?from=%d&to=%d", r.from, r.to)
	case kindKNN:
		r.url = fmt.Sprintf("/knn?from=%d&k=%d", r.from, knnK)
	case kindPath:
		r.url = fmt.Sprintf("/path?from=%d&to=%d", r.from, r.to)
	case kindRow:
		r.url = "/row?from=" + strconv.Itoa(r.from)
	case kindBatch:
		r.url = "/batch"
		body := []byte(`{"dist":[`)
		r.pairs = make([][2]int, batchPairs)
		for i := range r.pairs {
			p := [2]int{r.from, r.to}
			if i > 0 {
				p = [2]int{g.source(), g.rng.Intn(g.n)}
				body = append(body, ',')
			}
			r.pairs[i] = p
			body = fmt.Appendf(body, `{"from":%d,"to":%d}`, p[0], p[1])
		}
		r.body = append(body, "]}"...)
	}
	return r
}

// poissonSchedule returns the due times of an open-loop phase: arrivals
// of a Poisson process of the given rate over dur, as offsets from the
// phase start.
func poissonSchedule(seed int64, rate float64, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var out []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		if d := time.Duration(t * float64(time.Second)); d < dur {
			out = append(out, d)
		} else {
			return out
		}
	}
}

// Response bodies, as far as the checks read them. Dist is a pointer so
// a null (the server's "unreachable") is told from a number; every graph
// here is connected, so null is a wrong answer.
type (
	distResp struct {
		From int      `json:"from"`
		To   int      `json:"to"`
		Dist *float64 `json:"dist"`
	}
	rowResp struct {
		From int       `json:"from"`
		Dist []float64 `json:"dist"`
	}
	knnResp struct {
		From    int         `json:"from"`
		Targets []knnTarget `json:"targets"`
	}
	pathResp struct {
		distResp
		Hops []int `json:"hops"`
	}
	batchResp struct {
		Dist []distResp `json:"dist"`
	}
)

func (d *distResp) ok(ref *reference, from, to int) bool {
	return d.From == from && d.To == to && d.Dist != nil && ref.distOK(from, to, *d.Dist)
}

// responseOK judges one reply: status 200, a well-formed body of the
// right shape that echoes the request, and — for a source with a
// reference row — the right answer.
func responseOK(ref *reference, r *request, status int, body []byte) bool {
	if status != http.StatusOK {
		return false
	}
	switch r.kind {
	case kindDist:
		var v distResp
		return json.Unmarshal(body, &v) == nil && v.ok(ref, r.from, r.to)
	case kindKNN:
		var v knnResp
		return json.Unmarshal(body, &v) == nil && v.From == r.from && ref.knnOK(r.from, knnK, v.Targets)
	case kindPath:
		var v pathResp
		return json.Unmarshal(body, &v) == nil && v.From == r.from && v.To == r.to && v.Dist != nil &&
			ref.pathOK(r.from, r.to, *v.Dist, v.Hops)
	case kindRow:
		var v rowResp
		return json.Unmarshal(body, &v) == nil && v.From == r.from && ref.rowOK(r.from, v.Dist)
	default:
		var v batchResp
		if json.Unmarshal(body, &v) != nil || len(v.Dist) != len(r.pairs) {
			return false
		}
		for i := range v.Dist {
			if !v.Dist[i].ok(ref, r.pairs[i][0], r.pairs[i][1]) {
				return false
			}
		}
		return true
	}
}

// client sends requests to one server over at most conns connections.
type client struct {
	base string
	http *http.Client
	ref  *reference
	tr   *tracer
	// group numbers the requests of a run, the shared id of their spans.
	group atomic.Int64
}

func newClient(base string, conns int, ref *reference, tr *tracer) *client {
	return &client{base: base, ref: ref, tr: tr, http: &http.Client{
		Timeout:   reqTimeout,
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true},
	}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends r and reads the whole reply into buf. done is the time of the
// last body byte; the correctness check runs after it and is not timed.
func (c *client) do(ctx context.Context, r *request, buf *bytes.Buffer) (ok bool, done time.Time) {
	method, body := http.MethodGet, io.Reader(nil)
	if r.kind == kindBatch {
		method, body = http.MethodPost, bytes.NewReader(r.body)
	}
	hr, err := http.NewRequestWithContext(ctx, method, c.base+r.url, body)
	if err != nil {
		return false, time.Now()
	}
	resp, err := c.http.Do(hr)
	if err != nil {
		return false, time.Now()
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	done = time.Now()
	return err == nil && responseOK(c.ref, r, resp.StatusCode, buf.Bytes()), done
}

// loadResult is what one load phase measured.
type loadResult struct {
	// latencyMs has one entry per attempted request: from its due time
	// (open loop) or its send time (closed loop) to the last body byte.
	latencyMs []float64
	// lateUs is how much later than possible the generator sent each
	// open-loop request: send time minus the later of the due time and
	// the moment the connection became free.
	lateUs    []float64
	rttSum    [numKinds]time.Duration
	rttCount  [numKinds]int
	attempted int
	failed    int
	lastSent  time.Time
	elapsed   time.Duration
	// schedSpan and sentSpan (open loop) are the schedule's last due time
	// and the time its last request was actually sent, both from the
	// window's start; merged results carry the sums over their windows.
	schedSpan, sentSpan time.Duration
}

// rateRatio (open loop) is the achieved over the scheduled arrival rate.
// Below 1 the generator stretched the schedule.
func (a *loadResult) rateRatio() float64 {
	if a.sentSpan <= 0 {
		return 0
	}
	return float64(a.schedSpan) / float64(a.sentSpan)
}

// merge adds b's samples to a; the caller sorts once all are in.
func (a *loadResult) merge(b *loadResult) {
	a.latencyMs = append(a.latencyMs, b.latencyMs...)
	a.lateUs = append(a.lateUs, b.lateUs...)
	a.elapsed += b.elapsed
	a.schedSpan += b.schedSpan
	a.sentSpan += b.sentSpan
	for k := range a.rttSum {
		a.rttSum[k] += b.rttSum[k]
		a.rttCount[k] += b.rttCount[k]
	}
	a.attempted += b.attempted
	a.failed += b.failed
	if b.lastSent.After(a.lastSent) {
		a.lastSent = b.lastSent
	}
}

func (a *loadResult) record(r *request, ok bool, from, sent, done time.Time) {
	a.attempted++
	if !ok {
		a.failed++
	}
	a.latencyMs = append(a.latencyMs, float64(done.Sub(from))/float64(time.Millisecond))
	a.rttSum[r.kind] += done.Sub(sent)
	a.rttCount[r.kind]++
	a.lastSent = sent
}

func (a *loadResult) sort() {
	sort.Float64s(a.latencyMs)
	sort.Float64s(a.lateUs)
}

// qps is the closed-loop capacity figure: correct replies per second.
func (a *loadResult) qps() float64 {
	return float64(a.attempted-a.failed) / a.elapsed.Seconds()
}

// runWorkers runs one goroutine per connection and merges their results.
func runWorkers(conns int, work func(w int, res *loadResult)) loadResult {
	parts := make([]loadResult, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			work(w, &parts[w])
		}(w)
	}
	wg.Wait()
	var total loadResult
	for i := range parts {
		total.merge(&parts[i])
	}
	total.elapsed = time.Since(start)
	total.sort()
	return total
}

// openLoop sends reqs[i] at start+sched[i] whatever the server does,
// over conns connections, and times each request from its due time: a
// stall makes the requests queued behind it late, and that wait counts.
func openLoop(ctx context.Context, c *client, reqs []request, sched []time.Duration, conns int) loadResult {
	var next atomic.Int64
	start := time.Now()
	res := runWorkers(conns, func(_ int, res *loadResult) {
		var buf bytes.Buffer
		for ctx.Err() == nil {
			i := int(next.Add(1) - 1)
			if i >= len(sched) {
				return
			}
			due, free := start.Add(sched[i]), time.Now()
			if wait := due.Sub(free); wait > 0 {
				select {
				case <-time.After(wait):
				case <-ctx.Done():
					return
				}
			}
			sent := time.Now()
			ok, done := c.do(ctx, &reqs[i], &buf)
			res.record(&reqs[i], ok, due, sent, done)
			earliest := due
			if free.After(due) {
				earliest = free
			}
			res.lateUs = append(res.lateUs, float64(sent.Sub(earliest))/float64(time.Microsecond))
			if c.tr != nil {
				g := int(c.group.Add(1))
				root := c.tr.add("request."+kindNames[reqs[i].kind], -1, g, due, done)
				c.tr.add("loadgen.wait", root, g, due, sent)
				c.tr.add("client.roundtrip", root, g, sent, done)
			}
		}
	})
	if res.attempted > 0 {
		res.schedSpan, res.sentSpan = sched[len(sched)-1], res.lastSent.Sub(start)
	}
	return res
}

// closedLoop keeps conns connections busy for dur: each sends its next
// request when the previous reply is complete, so a slower server is
// offered less load. gens supplies one request stream per connection.
func closedLoop(ctx context.Context, c *client, gens []*generator, dur time.Duration) loadResult {
	deadline := time.Now().Add(dur)
	return runWorkers(len(gens), func(w int, res *loadResult) {
		var buf bytes.Buffer
		for ctx.Err() == nil && time.Now().Before(deadline) {
			r := gens[w].next()
			sent := time.Now()
			ok, done := c.do(ctx, &r, &buf)
			res.record(&r, ok, sent, sent, done)
			if c.tr != nil {
				g := int(c.group.Add(1))
				root := c.tr.add("request."+kindNames[r.kind], -1, g, sent, done)
				c.tr.add("client.roundtrip", root, g, sent, done)
			}
		}
	})
}
