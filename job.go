package apspark

import (
	"fmt"
	"strings"

	"apspark/internal/core"
	"apspark/internal/obs"
	"apspark/internal/seq"
)

// jobSettings is the tunable state shared by a Session (as defaults) and
// a single job (as the settings after its SolveOptions apply). A zero
// field means "the default", resolved where it is used, so a job can
// tell an option it was given from one it was not.
type jobSettings struct {
	solver       SolverKind           // "" = SolverCB
	blockSize    int                  // 0 = auto
	partitioner  core.PartitionerKind // "" = PartitionerMD
	partsPerCore int                  // 0 = 2
	maxUnits     int                  // 0 = run to completion
	verify       bool
	trace        bool
	resume       bool
	codec        string // "" = raw
	partSize     int    // 0 = auto
	partSeed     int64
	progress     func(StageEvent)
}

// entry is the Session method a job came in through.
type entry string

const (
	solveEntry     entry = "Solve"
	projectEntry   entry = "Project"
	storeEntry     entry = "SolveToStore"
	hierarchyEntry entry = "BuildHierarchy"
)

// job is one job's settings once the job contract has accepted them.
type job struct {
	jobSettings
	entry entry
}

// clusterSolvers lists the virtual-cluster solvers for errors, and
// clusterJobs names the jobs that run on the virtual cluster.
var (
	clusterSolvers = strings.Join(core.RegisteredSolvers(), "|")
	clusterJobs    = "Solve, Project and SolveToStore with " + clusterSolvers
)

// jobContract is, for each option a job may be given, whether the
// settings carry it and which jobs take it (host: the solver is
// SolverDijkstra). WithSolver and WithProgress are taken by every job.
var jobContract = []struct {
	option string
	set    func(*jobSettings) bool
	takes  func(e entry, host bool) bool
	where  string
}{
	{"WithBlockSize", func(j *jobSettings) bool { return j.blockSize != 0 },
		func(e entry, _ bool) bool { return e != hierarchyEntry }, "Solve, Project and SolveToStore"},
	{"WithPartitioner", func(j *jobSettings) bool { return j.partitioner != "" }, onCluster, clusterJobs},
	{"WithPartsPerCore", func(j *jobSettings) bool { return j.partsPerCore != 0 }, onCluster, clusterJobs},
	{"WithMaxUnits", func(j *jobSettings) bool { return j.maxUnits != 0 }, onCluster, clusterJobs},
	{"WithTrace", func(j *jobSettings) bool { return j.trace }, onCluster, clusterJobs},
	{"WithVerify", func(j *jobSettings) bool { return j.verify },
		func(e entry, host bool) bool { return e != storeEntry || !host },
		"Solve, Project, BuildHierarchy and SolveToStore with " + clusterSolvers},
	{"WithResume", func(j *jobSettings) bool { return j.resume },
		func(e entry, host bool) bool { return e == storeEntry && host }, "SolveToStore with dij"},
	{"WithCodec", func(j *jobSettings) bool { return j.codec != "" },
		func(e entry, _ bool) bool { return e == storeEntry }, "SolveToStore"},
	{"WithPartSize", func(j *jobSettings) bool { return j.partSize != 0 }, inHierarchy, "BuildHierarchy"},
	{"WithPartSeed", func(j *jobSettings) bool { return j.partSeed != 0 }, inHierarchy, "BuildHierarchy"},
}

func onCluster(e entry, host bool) bool { return e != hierarchyEntry && !host }
func inHierarchy(e entry, _ bool) bool  { return e == hierarchyEntry }

// accept is the job contract: it merges the session defaults with opts
// for a job that came in through e on graph g (nil for Project), and
// refuses the job if it was given an option it does not take.
func (s *Session) accept(e entry, g *Graph, opts []SolveOption) (job, error) {
	if g == nil && e != projectEntry {
		return job{}, fmt.Errorf("apspark: %s with nil graph", e)
	}
	j := job{jobSettings: s.defaults, entry: e}
	for _, o := range opts {
		if o == nil {
			continue
		}
		if err := o.applyJob(&j.jobSettings); err != nil {
			return job{}, err
		}
	}
	if j.solver == "" {
		j.solver = SolverCB
	}
	host := j.solver == SolverDijkstra
	if e == projectEntry && host {
		return job{}, fmt.Errorf("apspark: %s has no phantom mode; Project needs one of %s", j.solver, clusterSolvers)
	}
	for _, c := range jobContract {
		if c.set(&j.jobSettings) && !c.takes(e, host) {
			return job{}, fmt.Errorf("apspark: %s is for %s, not %s", c.option, c.where, j)
		}
	}
	return j, nil
}

// String names the job in errors: "BuildHierarchy", or the entry point
// and solver ("Solve with dij").
func (j job) String() string {
	if j.entry == hierarchyEntry {
		return string(j.entry)
	}
	return fmt.Sprintf("%s with %s", j.entry, j.solver)
}

// span opens the job's root span; rdd stages and streamed panels nest
// under it.
func (j job) span() obs.Span {
	if j.entry == hierarchyEntry {
		return obs.DefaultTracer().Start("hierarchy", "build")
	}
	return obs.DefaultTracer().Start("solve", string(j.solver))
}

// progress streams the events of a host solve or a hierarchy build, one
// "unit" per finished panel or partition and a final "done", numbered the
// way rdd numbers a cluster job's.
type progress struct {
	fn  func(StageEvent)
	seq int
}

func (p *progress) unit(done, total int) {
	p.emit(StageEvent{Name: "unit", UnitsDone: done, UnitsTotal: total})
}

func (p *progress) done(done, total int) {
	p.emit(StageEvent{Name: "done", UnitsDone: done, UnitsTotal: total, Done: true})
}

func (p *progress) emit(ev StageEvent) {
	if p.fn == nil {
		return
	}
	p.seq++
	ev.Seq = p.seq
	p.fn(ev)
}

// verifyRows cross-checks the distances of what, read a row at a time,
// against sequential Floyd-Warshall.
func verifyRows(g *Graph, what string, row func(u int) ([]float64, error)) error {
	want, err := seq.FloydWarshall(g)
	if err != nil {
		return fmt.Errorf("apspark: verify reference: %w", err)
	}
	for u := 0; u < g.N; u++ {
		got, err := row(u)
		if err != nil {
			return fmt.Errorf("apspark: verify row %d: %w", u, err)
		}
		ref := Matrix{R: 1, C: g.N, Data: want.Row(u)}
		if !(&Matrix{R: 1, C: len(got), Data: got}).AllClose(&ref, 1e-9) {
			return fmt.Errorf("apspark: %s diverges from sequential Floyd-Warshall", what)
		}
	}
	return nil
}

// rowsOf reads m a row at a time, for verifyRows.
func rowsOf(m *Matrix) func(int) ([]float64, error) {
	return func(u int) ([]float64, error) { return m.Row(u), nil }
}
