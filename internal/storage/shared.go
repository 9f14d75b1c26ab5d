// Package storage provides the shared persistent store (a GPFS stand-in)
// that the paper's "impure" solvers use to work around missing Spark
// functionality: the driver collects blocks and writes them to the shared
// file system, and executors read exactly the blocks they need (paper §4.2
// and §4.5). Reads are cached per node within an epoch, modelling the OS
// page cache that lets many tasks on one node share a single fetch.
package storage

import (
	"fmt"
	"sync"

	"apspark/internal/cluster"
)

// Shared is a keyed blob store backed by the virtual cluster's shared file
// system. Values are held as opaque interface values (real blocks or
// phantoms); only their reported byte size matters for cost accounting.
type Shared struct {
	clu *cluster.Cluster

	mu       sync.Mutex
	epoch    int64
	data     map[string]entry
	nodeSeen []map[string]bool // per-node page-cache per epoch
}

type entry struct {
	value any
	bytes int64
	epoch int64
}

// NewShared builds a store bound to a cluster.
func NewShared(clu *cluster.Cluster) *Shared {
	s := &Shared{clu: clu, data: make(map[string]entry)}
	s.nodeSeen = make([]map[string]bool, clu.Config().Nodes)
	for i := range s.nodeSeen {
		s.nodeSeen[i] = make(map[string]bool)
	}
	return s
}

// Epoch returns the current epoch counter.
func (s *Shared) Epoch() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// NewEpoch advances the epoch: node page caches are dropped and stale keys
// become eligible for overwrite. Solvers call this once per iteration.
func (s *Shared) NewEpoch() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epoch++
	for i := range s.nodeSeen {
		s.nodeSeen[i] = make(map[string]bool)
	}
}

// Put stores value under key, charging the driver clock for the NIC + FS
// write. It is a driver-side (serial) operation.
func (s *Shared) Put(key string, value any, bytes int64) {
	s.mu.Lock()
	s.data[key] = entry{value: value, bytes: bytes, epoch: s.epoch}
	s.mu.Unlock()
	s.clu.AddSharedWrite(bytes)
	s.clu.Advance(s.clu.SharedWriteCost(bytes))
}

// Delete drops key and every node's cached read of it, so the store stops
// referencing its value. Like an unlinked staging file, it costs no virtual
// time.
func (s *Shared) Delete(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.data, key)
	for _, seen := range s.nodeSeen {
		delete(seen, key)
	}
}

// Get fetches a value for an executor on the given node, returning the
// value and the virtual seconds the read costs (zero when the node's page
// cache already holds the key this epoch). The caller charges the returned
// cost to its task.
func (s *Shared) Get(key string, node int) (any, float64, error) {
	s.mu.Lock()
	e, ok := s.data[key]
	if !ok {
		s.mu.Unlock()
		return nil, 0, fmt.Errorf("storage: key %q not found", key)
	}
	cached := s.nodeSeen[node][key]
	if !cached {
		s.nodeSeen[node][key] = true
	}
	s.mu.Unlock()
	if cached {
		return e.value, 0, nil
	}
	s.clu.AddSharedRead(e.bytes)
	return e.value, s.clu.SharedReadCost(e.bytes), nil
}

// Peek returns the value under key without touching any page cache or
// charging anything: executors use it to obtain the data while the
// scheduler settles who pays for the read (see rdd.TaskContext.SharedGet).
func (s *Shared) Peek(key string) (any, error) {
	s.mu.Lock()
	e, ok := s.data[key]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("storage: key %q not found", key)
	}
	return e.value, nil
}

// Bytes returns the stored size of a key (0 when absent).
func (s *Shared) Bytes(key string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.data[key].bytes
}

// Len returns the number of stored keys.
func (s *Shared) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.data)
}
