// Package mpi is a message-passing runtime simulator: ranks are
// goroutines, messages move through channels, and every rank carries its
// own virtual clock advanced by an alpha-beta (latency + bytes/bandwidth)
// communication model and by explicit compute charges. It exists to host
// the paper's two MPI reference solvers (§5.5) — the naive 2D
// Floyd-Warshall (FW-2D-GbE) and the Solomonik-style divide-and-conquer
// solver (DC-GbE) — on the same GbE constants as the Spark cluster model,
// so the cross-framework comparison of Table 3 / Figure 5 can be
// regenerated.
package mpi

import (
	"fmt"
	"sync"
)

// Config holds the communication constants (seconds, bytes/second).
type Config struct {
	Latency   float64
	Bandwidth float64
}

// GbE returns the paper cluster's interconnect constants.
func GbE() Config {
	return Config{Latency: 200e-6, Bandwidth: 117e6}
}

// message is one point-to-point transfer.
type message struct {
	value   any
	bytes   int64
	arrival float64 // sender clock + alpha + bytes/beta
}

// World is a communicator of P ranks.
type World struct {
	P   int
	cfg Config

	mu     sync.Mutex
	chans  [][]chan message // chans[src][dst], made on first use (see link)
	clocks []float64

	barrier *barrier
}

// NewWorld builds a world of p ranks.
func NewWorld(p int, cfg Config) (*World, error) {
	if p <= 0 {
		return nil, fmt.Errorf("mpi: world size %d must be positive", p)
	}
	w := &World{P: p, cfg: cfg, clocks: make([]float64, p), barrier: newBarrier(p)}
	w.chans = make([][]chan message, p)
	for i := range w.chans {
		w.chans[i] = make([]chan message, p)
	}
	return w, nil
}

// link returns the channel carrying src's messages to dst, making it when
// either end first asks: a p = 1,024 world has a million ordered pairs and
// the collectives of a run use a few thousand of them.
func (w *World) link(src, dst int) chan message {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.chans[src][dst] == nil {
		w.chans[src][dst] = make(chan message, 64)
	}
	return w.chans[src][dst]
}

// Run executes body on every rank concurrently and returns the first
// error. After Run, MaxClock reports the slowest rank's virtual time.
func (w *World) Run(body func(r *Rank) error) error {
	var wg sync.WaitGroup
	errs := make([]error, w.P)
	for i := 0; i < w.P; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := &Rank{world: w, ID: id}
			errs[id] = body(r)
			w.mu.Lock()
			w.clocks[id] = r.Clock
			w.mu.Unlock()
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// MaxClock returns the largest rank clock recorded by the last Run — the
// job's virtual makespan.
func (w *World) MaxClock() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	var m float64
	for _, c := range w.clocks {
		if c > m {
			m = c
		}
	}
	return m
}

// Rank is one process in the world.
type Rank struct {
	world *World
	ID    int
	Clock float64
}

// Compute advances the rank's clock by sec of local work.
func (r *Rank) Compute(sec float64) {
	if sec > 0 {
		r.Clock += sec
	}
}

// Send transmits value to dst. The sender pays the injection overhead; the
// message arrives at sender_clock + alpha + bytes/beta.
func (r *Rank) Send(dst int, value any, bytes int64) error {
	if dst < 0 || dst >= r.world.P {
		return fmt.Errorf("mpi: send to rank %d of %d", dst, r.world.P)
	}
	cfg := r.world.cfg
	arrival := r.Clock + cfg.Latency + float64(bytes)/cfg.Bandwidth
	r.Clock += cfg.Latency // injection overhead
	r.world.link(r.ID, dst) <- message{value: value, bytes: bytes, arrival: arrival}
	return nil
}

// Recv blocks for the next message from src and advances the clock to its
// arrival time.
func (r *Rank) Recv(src int) (any, int64, error) {
	if src < 0 || src >= r.world.P {
		return nil, 0, fmt.Errorf("mpi: recv from rank %d of %d", src, r.world.P)
	}
	m := <-r.world.link(src, r.ID)
	if m.arrival > r.Clock {
		r.Clock = m.arrival
	}
	return m.value, m.bytes, nil
}

// Bcast broadcasts root's value to the given group (which must contain
// root and the caller) along a binomial tree, returning the value.
func (r *Rank) Bcast(group []int, root int, value any, bytes int64) (any, error) {
	pos := -1
	rootPos := -1
	for i, id := range group {
		if id == r.ID {
			pos = i
		}
		if id == root {
			rootPos = i
		}
	}
	if pos < 0 || rootPos < 0 {
		return nil, fmt.Errorf("mpi: rank %d or root %d not in group %v", r.ID, root, group)
	}
	// Rotate so the root sits at virtual position 0.
	n := len(group)
	vpos := (pos - rootPos + n) % n
	v := value
	// Binomial tree: in round t, positions < 2^t send to position + 2^t.
	recvd := vpos == 0
	for step := 1; step < n; step *= 2 {
		if !recvd && vpos < 2*step && vpos >= step {
			src := group[(vpos-step+rootPos)%n]
			got, _, err := r.Recv(src)
			if err != nil {
				return nil, err
			}
			v = got
			recvd = true
		}
		if recvd && vpos < step && vpos+step < n {
			dst := group[(vpos+step+rootPos)%n]
			if err := r.Send(dst, v, bytes); err != nil {
				return nil, err
			}
		}
	}
	return v, nil
}

// Barrier synchronizes all ranks: every clock advances to the global
// maximum plus a log(P) latency term.
func (r *Rank) Barrier() {
	cfg := r.world.cfg
	rounds := 0
	for n := 1; n < r.world.P; n *= 2 {
		rounds++
	}
	max := r.world.barrier.wait(r.Clock)
	r.Clock = max + float64(rounds)*cfg.Latency
}

// barrier is a reusable rendezvous computing the max of the entering
// clocks.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	count   int
	gen     int
	maxSeen float64
	result  float64
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) wait(clock float64) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	gen := b.gen
	if clock > b.maxSeen {
		b.maxSeen = clock
	}
	b.count++
	if b.count == b.n {
		b.result = b.maxSeen
		b.count = 0
		b.maxSeen = 0
		b.gen++
		b.cond.Broadcast()
		return b.result
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	return b.result
}
