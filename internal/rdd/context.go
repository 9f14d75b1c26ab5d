// Package rdd implements the Spark substrate the paper programs against: a
// driver/executor engine with lazy, lineage-tracked RDDs of ((I, J), value)
// records — a block key and a value that reports its own size (Pair,
// Sized) — narrow transformations pipelined into stages, wide
// transformations (PartitionBy, ReduceByKey, GroupByKey) realized through
// a hash shuffle with local-SSD staging,
// collect/broadcast actions, custom partitioners, and lineage-based task
// retry. Real record payloads and phantom (shape-only) payloads flow
// through identical code paths; the virtual cluster converts every task,
// shuffle and storage access into virtual seconds either way.
package rdd

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"apspark/internal/cluster"
	"apspark/internal/costmodel"
	"apspark/internal/graph"
	"apspark/internal/obs"
	"apspark/internal/storage"
)

// Pair is one RDD record: the paper's ((I, J), block) pair. Every record
// the solvers make is keyed by a block of the q x q grid (a column segment
// by its owning block-row and the pivot's column-block), which is what the
// partitioners lay out.
type Pair struct {
	Key   graph.BlockKey
	Value Sized
}

// Sized is an RDD record value: it reports its serialized size, which is
// what the shuffle, collect and broadcast charge for.
type Sized interface {
	SizeBytes() int64
}

// sizeOf is v's serialized size; a record without a value sizes 0.
func sizeOf(v Sized) int64 {
	if v == nil {
		return 0
	}
	return v.SizeBytes()
}

// ErrNotFaultTolerant is returned when a task fails during a run that has
// side effects outside the RDD lineage (paper: "impure" solvers staging
// data in shared storage are not fault-tolerant).
var ErrNotFaultTolerant = errors.New("rdd: task failed during impure run; side effects make lineage recovery unsound")

// TaskError wraps a task failure that exhausted its retry budget.
type TaskError struct {
	Stage string
	Task  int
	Err   error
}

func (e *TaskError) Error() string {
	return fmt.Sprintf("rdd: stage %q task %d failed permanently: %v", e.Stage, e.Task, e.Err)
}

func (e *TaskError) Unwrap() error { return e.Err }

// errInjected marks an injected fault.
var errInjected = errors.New("rdd: injected task failure")

// FailureInjector deterministically injects task failures for
// fault-tolerance tests and the purity ablation.
type FailureInjector struct {
	mu sync.Mutex
	// Scripted failures: "stage/task" -> number of attempts to fail.
	scripted map[string]int
	// Probabilistic failures.
	prob float64
	rng  *rand.Rand
}

// NewFailureInjector builds an injector with the given failure probability
// and seed. Scripted failures can be added with FailNext.
func NewFailureInjector(prob float64, seed int64) *FailureInjector {
	return &FailureInjector{
		scripted: make(map[string]int),
		prob:     prob,
		rng:      rand.New(rand.NewSource(seed)),
	}
}

// FailNext schedules the first n attempts of the given stage/task to fail.
// Stage names match the prefix of the stage label.
func (f *FailureInjector) FailNext(stage string, task, n int) {
	f.mu.Lock()
	f.scripted[fmt.Sprintf("%s/%d", stage, task)] += n
	f.mu.Unlock()
}

func (f *FailureInjector) shouldFail(stage string, task int) bool {
	if f == nil {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	key := fmt.Sprintf("%s/%d", stage, task)
	if f.scripted[key] > 0 {
		f.scripted[key]--
		return true
	}
	return f.prob > 0 && f.rng.Float64() < f.prob
}

// maxTaskAttempts mirrors Spark's default of 4 task attempts.
const maxTaskAttempts = 4

// StageEvent is one entry of the driver's progress stream: emitted after
// every completed stage, after every solver iteration unit, and once more
// when the job finishes. DeltaSeconds telescopes: summing it over all
// events of a job yields the job's final virtual time, including driver
// advances (collect, broadcast) that happen between stages.
type StageEvent struct {
	// Seq is the 1-based stage sequence number within the driver context.
	Seq int
	// Name labels the event: the stage name for stage completions, "unit"
	// for iteration-unit boundaries, "done" for the final event.
	Name string
	// Tasks is the completed stage's task count (0 for unit/done events).
	Tasks int
	// UnitsDone / UnitsTotal report solver iteration progress as of the
	// event (solver-specific units: columns for RS, pivots for FW2D, block
	// iterations for IM/CB).
	UnitsDone, UnitsTotal int
	// VirtualSeconds is the cluster clock when the event fired.
	VirtualSeconds float64
	// DeltaSeconds is the clock advance since the previous event.
	DeltaSeconds float64
	// ShuffleBytes is the cumulative shuffle traffic so far.
	ShuffleBytes int64
	// Done marks the final event of a job.
	Done bool
}

// Context is the driver: it owns the virtual cluster, the shared store,
// the kernel cost model, and executes stages.
type Context struct {
	Cluster *cluster.Cluster
	Model   costmodel.KernelModel
	Store   *storage.Shared

	Injector *FailureInjector

	mu         sync.Mutex
	nextID     int
	stageSeq   int
	impure     bool
	failed     bool
	workers    int
	jobCtx     context.Context
	progress   func(StageEvent)
	tracer     *obs.Tracer
	unitsDone  int
	unitsTotal int
	lastClock  float64
}

// NewContext builds a driver context over a virtual cluster.
func NewContext(clu *cluster.Cluster, model costmodel.KernelModel) *Context {
	return &Context{
		Cluster: clu,
		Model:   model,
		Store:   storage.NewShared(clu),
		workers: runtime.GOMAXPROCS(0),
	}
}

// SetHostWorkers overrides how many host OS threads the engine uses to run
// tasks (default runtime.GOMAXPROCS). The surplus over a stage's task
// count becomes each task's intra-kernel parallelism budget
// (TaskContext.Workers). Tests use it to pin the parallel kernel paths on
// deterministically; results and virtual time never depend on it.
func (c *Context) SetHostWorkers(n int) {
	if n < 1 {
		n = 1
	}
	c.mu.Lock()
	c.workers = n
	c.mu.Unlock()
}

// BindContext attaches a job context to the driver. Every subsequent
// stage checks it at its boundary: a cancelled or expired context aborts
// the stage before any task launches and surfaces ctx.Err() through the
// failing action, so multi-hour solves stop within one stage. nil binds
// context.Background().
func (c *Context) BindContext(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	c.mu.Lock()
	c.jobCtx = ctx
	c.mu.Unlock()
}

// Err reports the bound job context's cancellation status (nil when no
// context is bound or it is still live).
func (c *Context) Err() error {
	c.mu.Lock()
	ctx := c.jobCtx
	c.mu.Unlock()
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// SetProgress installs the progress observer. It is invoked synchronously
// on the driver goroutine after every stage, unit, and job completion —
// keep it fast and do not call back into the engine from it. Install it
// before the job starts; it is not safe to swap mid-run observers that
// race with running stages.
func (c *Context) SetProgress(fn func(StageEvent)) {
	c.mu.Lock()
	c.progress = fn
	c.mu.Unlock()
}

// SetTracer installs a span tracer: every stage boundary then emits a
// span begin/end pair (Debug logs plus an apsp_span_seconds sample of
// the stage's host wall time), giving virtual-cluster solves the same
// timeline shape as host-native solves. Install it before the job
// starts, alongside SetProgress; nil disables tracing.
func (c *Context) SetTracer(t *obs.Tracer) {
	c.mu.Lock()
	c.tracer = t
	c.mu.Unlock()
}

// ReportUnit records solver iteration progress (done of total units) and
// emits a "unit" progress event at the current clock.
func (c *Context) ReportUnit(done, total int) {
	c.mu.Lock()
	c.unitsDone, c.unitsTotal = done, total
	c.mu.Unlock()
	c.emitProgress("unit", 0, false)
}

// FinishProgress emits the final "done" event of a job, folding in any
// trailing driver advances (the last collect, broadcasts) so that the
// DeltaSeconds of all emitted events sum to the job's final virtual time.
func (c *Context) FinishProgress() {
	c.emitProgress("done", 0, true)
}

// emitProgress builds and delivers one StageEvent if an observer is set.
func (c *Context) emitProgress(name string, tasks int, done bool) {
	c.mu.Lock()
	fn := c.progress
	if fn == nil {
		c.mu.Unlock()
		return
	}
	now := c.Cluster.Now()
	ev := StageEvent{
		Seq:            c.stageSeq,
		Name:           name,
		Tasks:          tasks,
		UnitsDone:      c.unitsDone,
		UnitsTotal:     c.unitsTotal,
		VirtualSeconds: now,
		DeltaSeconds:   now - c.lastClock,
		ShuffleBytes:   c.Cluster.Metrics().ShuffleBytes,
		Done:           done,
	}
	c.lastClock = now
	c.mu.Unlock()
	fn(ev)
}

// MarkImpure records that the computation has side effects outside RDD
// lineage (shared-storage staging). Task failures after this point abort
// the run instead of retrying, reproducing the paper's purity distinction.
func (c *Context) MarkImpure() {
	c.mu.Lock()
	c.impure = true
	c.mu.Unlock()
}

// Impure reports whether the run has been marked impure.
func (c *Context) Impure() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.impure
}

func (c *Context) newID() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	return c.nextID
}

// TaskContext carries per-task virtual cost accounting into user
// functions; kernels and building blocks charge their model costs here.
type TaskContext struct {
	ctx  *Context
	node int
	core int
	// cost sums the charges made before the task's first shared read;
	// from that read on every charge is parked in deferred, in program
	// order, and runStage replays the list once the stage is over (see
	// SharedGet).
	cost       float64
	deferred   []charge
	netBytes   int64
	hostBudget int
}

// charge is one deferred cost entry of a task: virtual seconds, or — when
// key is set — a shared read whose cost is only known after the stage.
type charge struct {
	sec float64
	key string
}

// Model exposes the kernel cost model.
func (tc *TaskContext) Model() costmodel.KernelModel { return tc.ctx.Model }

// Node returns the virtual node executing the task.
func (tc *TaskContext) Node() int { return tc.node }

// Workers reports how many host OS threads this task may claim for
// intra-kernel parallelism. When a stage has fewer tasks than the machine
// has host workers, the surplus is divided among the running tasks so the
// big matrix kernels can shard their tile grids instead of leaving cores
// idle. Purely a host-speed hint: it never affects results or the virtual
// clock.
func (tc *TaskContext) Workers() int {
	if tc.hostBudget < 1 {
		return 1
	}
	return tc.hostBudget
}

// Charge adds raw virtual seconds to the task.
func (tc *TaskContext) Charge(sec float64) {
	switch {
	case sec <= 0:
	case tc.deferred != nil:
		tc.deferred = append(tc.deferred, charge{sec: sec})
	default:
		tc.cost += sec
	}
}

// ChargeSer charges (de)serialization of the given byte volume.
func (tc *TaskContext) ChargeSer(bytes int64) {
	tc.Charge(tc.ctx.Cluster.SerCost(bytes))
}

// ChargeNet charges a network fetch at full NIC speed and registers the
// bytes toward the stage's aggregate-bandwidth floor.
func (tc *TaskContext) ChargeNet(bytes int64, msgs int) {
	tc.Charge(tc.ctx.Cluster.NetCost(bytes, msgs))
	tc.netBytes += bytes
}

// SharedGet reads a key from the shared store. The read is free when the
// node's page cache already holds the key this epoch, so which of a
// node's concurrent tasks pays for it would depend on goroutine
// scheduling; instead the task only records the read, and runStage charges
// it after the stage in task-index order — the order a one-worker run
// executes in — at this position in the task's charge sequence.
func (tc *TaskContext) SharedGet(key string) (any, error) {
	v, err := tc.ctx.Store.Peek(key)
	if err != nil {
		return nil, err
	}
	tc.deferred = append(tc.deferred, charge{key: key})
	return v, nil
}

// stageResult carries one task's output.
type stageResult struct {
	pairs []Pair
	err   error
}

// runStage executes n tasks with real parallelism while accounting virtual
// time: task i is pinned to virtual core i mod p (Spark's wave
// scheduling), core times accumulate task costs plus the executor launch
// overhead, and the stage makespan is the maximum core time. Driver-side
// scheduling overhead is charged per task; injected failures retry up to
// maxTaskAttempts unless the run is impure.
func (c *Context) runStage(name string, n int, task func(tc *TaskContext, i int) ([]Pair, error)) ([][]Pair, error) {
	// Stage boundary: a cancelled or expired job context aborts here,
	// before any task launches. Long stages run to completion; the next
	// boundary stops the job.
	if err := c.Err(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.stageSeq++
	stage := fmt.Sprintf("%s#%d", name, c.stageSeq)
	hostWorkers := c.workers
	tracer := c.tracer
	c.mu.Unlock()
	// Span over the stage's host execution (virtual time is accounted
	// separately by the cluster clock); the label is the stage's base
	// name, a bounded set, not the per-run #seq form.
	span := tracer.Start("stage", name)
	defer span.End()

	p := c.Cluster.Cores()
	// taskCost[i] and taskDeferred[i] are written only by the goroutine
	// running task i (retries appended in attempt order) and folded into
	// core times in index order after the stage: float addition is not
	// associative and the shared store's page cache is first-reader-pays,
	// so accounting in completion order would move the makespan with
	// goroutine scheduling.
	taskCost := make([]float64, n)
	taskDeferred := make([][]charge, n)
	results := make([][]Pair, n)
	var mu sync.Mutex
	var firstErr error
	var stageNetBytes int64

	workers := hostWorkers
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	// Idle-core budget: with fewer tasks than host workers, each task may
	// fan its kernels out over the surplus threads (intra-kernel
	// parallelism). With n >= workers every task gets exactly one.
	hostBudget := hostWorkers / workers
	if hostBudget < 1 {
		hostBudget = 1
	}
	var wg sync.WaitGroup
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)

	runOne := func(i int) error {
		core := i % p
		var lastErr error
		for attempt := 1; attempt <= maxTaskAttempts; attempt++ {
			tc := &TaskContext{ctx: c, node: c.Cluster.NodeOfCore(core), core: core, hostBudget: hostBudget}
			pairs, err := task(tc, i)
			if err == nil && c.Injector.shouldFail(name, i) {
				err = errInjected
			}
			// Failed attempts still burn time.
			if taskDeferred[i] == nil {
				taskCost[i] += tc.cost
				taskDeferred[i] = tc.deferred
			} else {
				taskDeferred[i] = append(append(taskDeferred[i], charge{sec: tc.cost}), tc.deferred...)
			}
			mu.Lock()
			stageNetBytes += tc.netBytes
			mu.Unlock()
			if err == nil {
				mu.Lock()
				results[i] = pairs
				mu.Unlock()
				return nil
			}
			lastErr = err
			var storageErr *cluster.ErrLocalStorage
			if errors.As(err, &storageErr) {
				// Out of staging space is not recoverable by retry.
				return err
			}
			if c.Impure() {
				return ErrNotFaultTolerant
			}
			c.Cluster.RecordRetry()
		}
		return &TaskError{Stage: stage, Task: i, Err: lastErr}
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				mu.Lock()
				stop := firstErr != nil
				mu.Unlock()
				if stop {
					continue
				}
				if err := runOne(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()

	coreTime := make([]float64, p)
	for i, cost := range taskCost {
		for _, ch := range taskDeferred[i] {
			if ch.key != "" {
				// Peek found the key during the task, so Get cannot fail.
				_, ch.sec, _ = c.Store.Get(ch.key, c.Cluster.NodeOfCore(i%p))
			}
			cost += ch.sec
		}
		coreTime[i%p] += cost
	}
	var makespan, sum float64
	for _, t := range coreTime {
		sum += t
		if t > makespan {
			makespan = t
		}
	}
	// Executor-side launch overhead: each core pays it once per task wave.
	waves := (n + p - 1) / p
	makespan += float64(waves) * c.Cluster.Config().TaskExecOverhead
	// The stage cannot beat the cluster's aggregate network bandwidth.
	if floor := c.Cluster.AggregateNetFloor(stageNetBytes); floor > makespan {
		makespan = floor
	}
	c.Cluster.RecordStage(stage, n, makespan, sum)
	c.emitProgress(name, n, false)

	if firstErr != nil {
		c.mu.Lock()
		c.failed = true
		c.mu.Unlock()
		return nil, firstErr
	}
	return results, nil
}

// Broadcast distributes a value from the driver to every node over the
// NIC tree (Spark's sc.broadcast). The cost lands on the driver clock.
type Broadcast struct {
	value Sized
}

// Value returns the broadcast payload.
func (b *Broadcast) Value() Sized { return b.value }

// Broadcast performs the broadcast and charges its virtual cost.
func (c *Context) Broadcast(v Sized) *Broadcast {
	bytes := sizeOf(v)
	c.Cluster.AddBroadcast(bytes)
	c.Cluster.Advance(c.Cluster.BroadcastCost(bytes))
	return &Broadcast{value: v}
}
