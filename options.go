package apspark

import (
	"fmt"

	"apspark/internal/cluster"
	"apspark/internal/core"
	"apspark/internal/costmodel"
	"apspark/internal/rdd"
	"apspark/internal/store"
)

// ClusterConfig describes the virtual cluster hardware and Spark runtime
// constants a Session simulates (nodes, cores, NIC and disk bandwidths,
// scheduling overheads).
type ClusterConfig = cluster.Config

// KernelModel maps kernel shapes to virtual seconds; see WithModel.
type KernelModel = costmodel.KernelModel

// PartitionerKind selects between the paper's two RDD partitioners
// (PartitionerMD, PartitionerPH).
type PartitionerKind = core.PartitionerKind

// StageEvent is one entry of a job's progress stream, delivered to the
// WithProgress callback after every completed stage, every iteration
// unit, and once more when the job finishes (Done). DeltaSeconds
// telescopes: the deltas of all events of a job sum to the job's final
// VirtualSeconds.
type StageEvent = rdd.StageEvent

// PaperCluster returns the paper's experimental platform: 32 nodes x 32
// cores, GbE, 180 GB executor memory — the default a Session simulates.
func PaperCluster() ClusterConfig { return cluster.Paper() }

// PaperClusterScaled returns the paper cluster shrunk to the given core
// count (a multiple of 32), as used by the weak-scaling study.
func PaperClusterScaled(cores int) (ClusterConfig, error) { return cluster.PaperScaled(cores) }

// Option configures a Session at creation time (New).
type Option interface {
	applySession(*Session) error
}

// SolveOption tunes a single job (Solve, Project or SolveToStore),
// overriding the session's defaults for that job only. A job given an
// option it does not take refuses to run; the README's option table says
// which job takes which.
type SolveOption interface {
	applyJob(*jobSettings) error
}

// SharedOption is accepted both by New (where it sets the session
// default) and by Solve/Project (where it overrides for one job).
type SharedOption interface {
	Option
	SolveOption
}

// settingsOption mutates the settings of whichever scope it is applied
// to — the session's defaults or one job's configuration.
type settingsOption func(*jobSettings) error

func (o settingsOption) applySession(s *Session) error { return o(&s.defaults) }
func (o settingsOption) applyJob(j *jobSettings) error { return o(j) }

// sessionOption mutates session-owned state (cluster, model) and is
// therefore not accepted by Solve/Project.
type sessionOption func(*Session) error

func (o sessionOption) applySession(s *Session) error { return o(s) }

// WithCluster sets the virtual cluster the session simulates (default:
// the paper's 32 x 32-core machine). Results are unaffected by the
// cluster shape; only the simulated time changes.
func WithCluster(cc ClusterConfig) Option {
	return sessionOption(func(s *Session) error {
		if cc.Nodes <= 0 || cc.CoresPerNode <= 0 {
			return fmt.Errorf("apspark: WithCluster needs positive nodes/cores, got %d/%d", cc.Nodes, cc.CoresPerNode)
		}
		s.cluster = cc
		return nil
	})
}

// WithClusterCores sets the virtual cluster to the paper platform scaled
// to the given core count (a positive multiple of 32, at most 1024).
func WithClusterCores(cores int) Option {
	return sessionOption(func(s *Session) error {
		cc, err := cluster.PaperScaled(cores)
		if err != nil {
			return err
		}
		s.cluster = cc
		return nil
	})
}

// WithModel sets the kernel cost model (default: paper-calibrated).
// Use costmodel.Calibrate for live-hardware projections.
func WithModel(m KernelModel) Option {
	return sessionOption(func(s *Session) error {
		s.model = m
		return nil
	})
}

// WithSolver picks the strategy (default SolverCB, the paper's best):
// one of the four virtual-cluster solvers or a host-native one.
func WithSolver(k SolverKind) SharedOption {
	return settingsOption(func(j *jobSettings) error {
		if k == "" {
			return fmt.Errorf("apspark: WithSolver with empty solver name")
		}
		j.solver = k
		return nil
	})
}

// WithBlockSize sets the 2D-decomposition parameter b; 0 restores the
// automatic default (n/8, clamped to [1, n]).
func WithBlockSize(b int) SharedOption {
	return settingsOption(func(j *jobSettings) error {
		if b < 0 {
			return fmt.Errorf("apspark: WithBlockSize(%d) must be >= 0", b)
		}
		j.blockSize = b
		return nil
	})
}

// WithPartitioner chooses the RDD partitioner of a virtual-cluster solve:
// PartitionerMD (default) or PartitionerPH.
func WithPartitioner(k PartitionerKind) SharedOption {
	return settingsOption(func(j *jobSettings) error {
		switch k {
		case core.PartitionerMD, core.PartitionerPH:
			j.partitioner = k
			return nil
		}
		return fmt.Errorf("apspark: unknown partitioner %q (want %s or %s)", k, core.PartitionerMD, core.PartitionerPH)
	})
}

// WithPartsPerCore sets the over-decomposition factor B of a
// virtual-cluster solve; 0 restores the default (2).
func WithPartsPerCore(b int) SharedOption {
	return settingsOption(func(j *jobSettings) error {
		if b < 0 {
			return fmt.Errorf("apspark: WithPartsPerCore(%d) must be >= 0", b)
		}
		j.partsPerCore = b
		return nil
	})
}

// WithMaxUnits truncates a virtual-cluster run after the given number of
// iteration units for measurement/projection purposes; 0 means run to
// completion.
func WithMaxUnits(units int) SharedOption {
	return settingsOption(func(j *jobSettings) error {
		if units < 0 {
			return fmt.Errorf("apspark: WithMaxUnits(%d) must be >= 0", units)
		}
		j.maxUnits = units
		return nil
	})
}

// WithVerify cross-checks a job's distances against sequential
// Floyd-Warshall (real solves only; a streamed host solve keeps no matrix
// to check).
func WithVerify(on bool) SharedOption {
	return settingsOption(func(j *jobSettings) error {
		j.verify = on
		return nil
	})
}

// WithTrace records the per-stage timeline of a virtual-cluster run into
// Result.Timeline. Off by default: paper-scale runs execute hundreds of
// thousands of stages; the WithProgress stream is the streaming
// (O(1)-memory) alternative.
func WithTrace(on bool) SharedOption {
	return settingsOption(func(j *jobSettings) error {
		j.trace = on
		return nil
	})
}

// WithResume makes SolveToStore with a host-native solver pick up the
// checkpoint a killed or cancelled streamed solve left behind (the
// partial store, path+".partial", whose own tile index records every
// durable panel): the solve restarts from the last durable panel, re-solving only the unfinished
// source rows, and the finished store is byte-identical to an
// uninterrupted run. When no checkpoint exists the solve simply starts
// from scratch. Checkpointing itself is always on for streamed host
// solves; WithResume only controls whether an existing checkpoint is
// honored (off, the default, starts over and overwrites it).
func WithResume(on bool) SharedOption {
	return settingsOption(func(j *jobSettings) error {
		j.resume = on
		return nil
	})
}

// WithCodec selects the tile codec of the store SolveToStore writes:
// "raw" (the default; "" means the same), "ivarint" (exact delta+varint
// compression for integer-weight graphs — any tile holding a
// non-integral, NaN, -Inf or >= 2^53 value falls back to raw bytes), or
// "f32" (lossy float32 downcast, per-value relative error bounded at
// 1e-6; tiles exceeding the bound fall back to raw). Compression is
// per-tile and self-describing: readers need no flag, and OpenStore
// serves any mix transparently. Only SolveToStore writes a store.
func WithCodec(name string) SharedOption {
	return settingsOption(func(j *jobSettings) error {
		if _, err := store.CodecByName(name); err != nil {
			return fmt.Errorf("apspark: WithCodec: %w", err)
		}
		if name == "raw" {
			name = ""
		}
		j.codec = name
		return nil
	})
}

// WithProgress streams StageEvents to fn as the job runs: one event per
// completed stage, one per iteration unit, and a final Done event.
// Within one job fn is called synchronously on that job's driver
// goroutine — keep it fast. A typical use cancels the job's context from
// fn to stop a run at a chosen boundary. As a session-level default
// shared by concurrent Solve/Project calls, fn is invoked from each
// job's goroutine and must be safe for concurrent use (give each job
// its own callback when events must be attributed to a job). nil clears
// a session-level callback for one job.
func WithProgress(fn func(StageEvent)) SharedOption {
	return settingsOption(func(j *jobSettings) error {
		j.progress = fn
		return nil
	})
}
