// Package generation owns the live-update lifecycle of a serving store:
// a directory of versioned store generations plus a durable CURRENT
// pointer, an updater that turns edge-delta batches into new generations
// by recomputing only the dirty row panels, a validation gate in front
// of promotion, and rollback/GC policies — the machinery that lets
// apsp-serve follow a mutating graph with zero downtime and zero wrong
// answers.
//
// Directory layout:
//
//	dir/
//	  CURRENT              # "gen-0007\n", published through fsx.Pending
//	  .lock                # flock'd for the duration of every mutation
//	  gen-0006/            # a full generation: store + the graph it solves
//	    dist.apsp
//	    graph.txt
//	    meta.json
//	  gen-0007/
//	  gen-0008.building/   # update in progress (crash leftover: removed on Open)
//	  gen-0005.quarantined/ # failed validation (kept for forensics, GC'd last)
//
// Crash safety is by construction: a generation becomes visible only by
// the atomic rename of its fully-fsync'd .building directory, and only
// becomes *served* by the atomic durable rewrite of CURRENT. A kill -9
// at any instant therefore leaves the directory in one of exactly three
// shapes — CURRENT pointing at the old generation (update lost, store
// intact), CURRENT pointing at the new one (update committed), or a
// stray .building/.quarantined directory beside an untouched CURRENT —
// and Open handles all three, falling back to the newest openable
// generation when CURRENT itself is torn or points at garbage.
//
// Cross-process safety comes from an exclusive advisory flock on
// dir/.lock held for the duration of every mutating operation (update,
// rollback, import, leftover cleanup at Open): a second process
// attempting one gets ErrBusy instead of racing the first's build or
// CURRENT rewrite, and the kernel releases the lock if its holder dies.
//
// Every generation carries its own graph.txt, so distances and the
// adjacency that explains them (path reconstruction, corrupt-tile
// recompute, the next delta batch) can never drift apart across
// promotions and rollbacks.
package generation

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"apspark/internal/fsx"
	"apspark/internal/graph"
	"apspark/internal/obs"
	"apspark/internal/store"
)

const (
	currentName     = "CURRENT"
	storeName       = "dist.apsp"
	graphName       = "graph.txt"
	metaName        = "meta.json"
	genPrefix       = "gen-"
	buildingSuffix  = ".building"
	quarantineSufix = ".quarantined"
)

// Typed errors callers branch on.
var (
	// ErrEmpty means the directory holds no openable generation at all.
	ErrEmpty = errors.New("generation: no serveable generation in directory")
	// ErrValidation means a candidate generation failed its pre-promotion
	// validation and was quarantined; CURRENT is untouched.
	ErrValidation = errors.New("generation: candidate failed validation")
	// ErrNoOlder means Rollback found no older generation to re-point
	// CURRENT at.
	ErrNoOlder = errors.New("generation: no older generation to roll back to")
	// ErrBadDelta means a delta batch was rejected before any build work
	// started: a malformed edge, an invalid weight, or a batch that is a
	// no-op against the current graph. Any other non-validation error out
	// of ApplyDeltas is an internal build/IO failure.
	ErrBadDelta = errors.New("generation: invalid delta batch")
	// ErrBusy means another process holds the generation directory's
	// advisory lock (an update, rollback or import is running there); the
	// operation was not started and can simply be retried.
	ErrBusy = fsx.ErrLocked
)

// crashHook, when non-nil, is called at the named lifecycle points
// (mid-build, mid-validate, mid-current, mid-gc). The kill -9 crash
// matrix test sets it in a subprocess to SIGKILL itself at each point;
// production code never touches it.
var crashHook func(stage string)

func hook(stage string) {
	if crashHook != nil {
		crashHook(stage)
	}
}

// Options tunes a Manager. The zero value is usable.
type Options struct {
	// Store configures how generation stores are opened — both the
	// short-lived handles the updater reads the parent generation
	// through and the handles OpenCurrent hands to the serving layer.
	Store store.Options
	// KeepLast bounds how many generations GC retains (the current one
	// always survives regardless). <= 0 means the default of 3.
	KeepLast int
}

// The validation gate recomputes validateRows rows from scratch and diffs
// them against the candidate, and spot-checks validateTiles tiles against
// their CRCs.
const (
	validateRows  = 4
	validateTiles = 16
)

func (o *Options) keepLast() int {
	if o.KeepLast <= 0 {
		return 3
	}
	return o.KeepLast
}

// Info describes one generation directory.
type Info struct {
	ID          string `json:"id"`
	Seq         int    `json:"seq"`
	Current     bool   `json:"current"`
	Quarantined bool   `json:"quarantined,omitempty"`
}

// Manager owns one generation directory: the CURRENT pointer, the graph
// of the current generation, and the update/rollback/GC state machine.
// All mutating operations (ApplyDeltas, Rollback) are serialized; the
// read-side accessors are safe to call concurrently with them.
type Manager struct {
	dir  string
	opts Options

	mu  sync.Mutex // serializes updates, rollbacks, reloads and GC
	cur atomic.Pointer[genState]

	updates         atomic.Int64 // delta batches accepted for processing
	updateFailures  atomic.Int64 // batches that failed before promotion (incl. quarantines)
	quarantines     atomic.Int64 // candidates quarantined by the validation gate
	promotions      atomic.Int64
	rollbacks       atomic.Int64
	gcRemoved       atomic.Int64
	lastDirtyRows   atomic.Int64
	lastPromoteNano atomic.Int64 // unix nanos of the last CURRENT rewrite
}

// genState is the immutable snapshot of the current generation.
type genState struct {
	id  string
	seq int
	g   *graph.Graph
	n   int
	b   int
}

// genID formats sequence seq as its directory name.
func genID(seq int) string { return fmt.Sprintf("%s%04d", genPrefix, seq) }

// parseGenID extracts the sequence number from a generation directory
// name, reporting ok=false for anything that is not exactly gen-<digits>.
func parseGenID(name string) (int, bool) {
	s, found := strings.CutPrefix(name, genPrefix)
	if !found || s == "" {
		return 0, false
	}
	seq, err := strconv.Atoi(s)
	if err != nil || seq < 0 {
		return 0, false
	}
	return seq, true
}

// Import publishes an existing solved store (and the graph it solves) as
// the first generation of dir, creating the directory if needed, and
// points CURRENT at it. It refuses to run when dir already has a
// CURRENT — importing over live generations would silently fork history.
func Import(dir, storePath string, g *graph.Graph) (string, error) {
	if g == nil {
		return "", fmt.Errorf("generation: import needs the solved graph (every generation carries its graph)")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	lock, err := fsx.LockDir(dir)
	if err != nil {
		return "", fmt.Errorf("generation: import: %w", err)
	}
	defer lock.Unlock()
	if _, err := os.Stat(filepath.Join(dir, currentName)); err == nil {
		return "", fmt.Errorf("generation: %s already has a CURRENT pointer; refusing to import over it", dir)
	}
	// Sanity: the store must open and match the graph before anything is
	// published.
	st, err := store.OpenWithOptions(storePath, store.Options{})
	if err != nil {
		return "", fmt.Errorf("generation: import store: %w", err)
	}
	n := st.N()
	st.Close()
	if n != g.N {
		return "", fmt.Errorf("generation: store has %d vertices, graph has %d", n, g.N)
	}
	// Continue after any existing (unreferenced) generation dirs rather
	// than colliding with them.
	seq := maxSeq(dir) + 1
	if seq < 1 {
		seq = 1
	}
	id := genID(seq)
	building := filepath.Join(dir, id+buildingSuffix)
	if err := os.RemoveAll(building); err != nil {
		return "", err
	}
	if err := os.Mkdir(building, 0o755); err != nil {
		return "", err
	}
	if err := publish(filepath.Join(building, storeName), func(w io.Writer) error {
		src, err := os.Open(storePath)
		if err != nil {
			return err
		}
		defer src.Close()
		_, err = io.Copy(w, src)
		return err
	}); err != nil {
		os.RemoveAll(building)
		return "", err
	}
	if err := publish(filepath.Join(building, graphName), g.WriteEdgeList); err != nil {
		os.RemoveAll(building)
		return "", err
	}
	if err := writeMeta(building, meta{ID: id, Parent: "", N: g.N, Created: time.Now().UTC().Format(time.RFC3339)}); err != nil {
		os.RemoveAll(building)
		return "", err
	}
	if err := fsx.RenameDurable(building, filepath.Join(dir, id)); err != nil {
		os.RemoveAll(building)
		return "", err
	}
	if err := writeCurrent(dir, id); err != nil {
		return "", err
	}
	return id, nil
}

// meta is the small descriptive sidecar of a generation.
type meta struct {
	ID         string `json:"id"`
	Parent     string `json:"parent,omitempty"`
	N          int    `json:"n"`
	DirtyRows  int    `json:"dirty_rows,omitempty"`
	Deltas     int    `json:"deltas,omitempty"`
	Created    string `json:"created,omitempty"`
	BuildMilli int64  `json:"build_ms,omitempty"`
}

// maxSeq returns the highest generation sequence present in dir (from
// live, building and quarantined entries alike), or 0.
func maxSeq(dir string) int {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	top := 0
	for _, e := range ents {
		name := strings.TrimSuffix(strings.TrimSuffix(e.Name(), buildingSuffix), quarantineSufix)
		if seq, ok := parseGenID(name); ok && seq > top {
			top = seq
		}
	}
	return top
}

// publish writes the file at path through write and commits it: the file
// appears at path complete and durable, or not at all.
func publish(path string, write func(io.Writer) error) error {
	f, err := fsx.Create(path)
	if err != nil {
		return err
	}
	defer f.Abort()
	if err := write(f); err != nil {
		return err
	}
	return f.Commit()
}

// writeCurrent durably re-points CURRENT at id. The mid-current crash
// hook sits between the write and the commit — the instant a kill must
// not be able to tear.
func writeCurrent(dir, id string) error {
	return publish(filepath.Join(dir, currentName), func(w io.Writer) error {
		if _, err := io.WriteString(w, id+"\n"); err != nil {
			return err
		}
		hook("mid-current")
		return nil
	})
}

// readCurrent parses CURRENT, returning ok=false when the file is
// missing, torn, or does not name a plausible generation.
func readCurrent(dir string) (string, bool) {
	raw, err := os.ReadFile(filepath.Join(dir, currentName))
	if err != nil {
		return "", false
	}
	id := strings.TrimSpace(string(raw))
	if _, ok := parseGenID(id); !ok {
		return "", false
	}
	return id, true
}

// openable reports whether the generation directory id under dir holds a
// store that opens and a graph that parses and matches it.
func openable(dir, id string) bool {
	st, err := store.OpenWithOptions(filepath.Join(dir, id, storeName), store.Options{})
	if err != nil {
		return false
	}
	n := st.N()
	st.Close()
	g, err := loadGraph(filepath.Join(dir, id, graphName))
	return err == nil && g.N == n
}

func loadGraph(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadEdgeList(f)
}

func writeMeta(genDir string, m meta) error {
	raw, err := jsonMarshal(m)
	if err != nil {
		return err
	}
	return publish(filepath.Join(genDir, metaName), func(w io.Writer) error {
		_, err := w.Write(raw)
		return err
	})
}

// Open attaches a Manager to dir: clears crash leftovers (.building
// directories, uncommitted CURRENT files), resolves CURRENT — falling back to the newest openable
// generation when CURRENT is torn, missing, or points at a generation
// that does not open — and loads the current generation's graph.
func Open(dir string, opts Options) (*Manager, error) {
	m := &Manager{dir: dir, opts: opts}
	if err := m.reloadLocked(true); err != nil {
		return nil, err
	}
	return m, nil
}

// Reload re-resolves CURRENT from disk (the SIGHUP hook): when an
// external actor re-pointed or replaced generations, the manager picks
// the change up and reports the (possibly new) current id.
func (m *Manager) Reload() (string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.reloadLocked(false); err != nil {
		return "", err
	}
	return m.cur.Load().id, nil
}

// reloadLocked resolves the current generation. clean also removes crash
// leftovers (done once, at Open) — but only under the cross-process
// lock: a .building directory or CURRENT temp file is a crash leftover only
// when no live updater in another process owns it, so when the lock is
// busy the leftovers are left to their owner.
func (m *Manager) reloadLocked(clean bool) error {
	if clean {
		switch lock, err := fsx.LockDir(m.dir); {
		case err == nil:
			ents, rerr := os.ReadDir(m.dir)
			if rerr != nil {
				lock.Unlock()
				return rerr
			}
			for _, e := range ents {
				// A kill between a CURRENT write and its commit leaves the
				// uncommitted file, named by fsx.Create, beside CURRENT.
				if name := e.Name(); strings.HasSuffix(name, buildingSuffix) || strings.HasPrefix(name, "."+currentName+".") {
					slog.Info("generation: removing crash leftover", "entry", name)
					os.RemoveAll(filepath.Join(m.dir, name))
				}
			}
			fsx.FsyncDir(m.dir)
			lock.Unlock()
		case errors.Is(err, ErrBusy):
			slog.Info("generation: directory locked by another process, skipping leftover cleanup", "dir", m.dir)
		default:
			return err
		}
	}
	id, ok := readCurrent(m.dir)
	if !ok || !openable(m.dir, id) {
		// CURRENT is torn, missing, or points at garbage: fall back to
		// the newest generation that actually opens, and repair CURRENT
		// so the next crash starts from a sane pointer.
		fallback := ""
		for _, info := range m.listLocked("") {
			if !info.Quarantined && openable(m.dir, info.ID) {
				fallback = info.ID
			}
		}
		if fallback == "" {
			return ErrEmpty
		}
		slog.Warn("generation: CURRENT unusable, falling back",
			"current", id, "fallback", fallback)
		if err := writeCurrent(m.dir, fallback); err != nil {
			return err
		}
		id = fallback
	}
	seq, _ := parseGenID(id)
	g, err := loadGraph(filepath.Join(m.dir, id, graphName))
	if err != nil {
		return fmt.Errorf("generation: %s graph: %w", id, err)
	}
	st, err := store.OpenWithOptions(filepath.Join(m.dir, id, storeName), store.Options{})
	if err != nil {
		return fmt.Errorf("generation: %s store: %w", id, err)
	}
	n, b := st.N(), st.BlockSize()
	st.Close()
	m.cur.Store(&genState{id: id, seq: seq, g: g, n: n, b: b})
	return nil
}

// listLocked returns every generation in dir ordered by sequence;
// current marks which one CURRENT names.
func (m *Manager) listLocked(current string) []Info {
	ents, err := os.ReadDir(m.dir)
	if err != nil {
		return nil
	}
	var infos []Info
	for _, e := range ents {
		if !e.IsDir() || strings.HasSuffix(e.Name(), buildingSuffix) {
			continue
		}
		name := e.Name()
		quarantined := strings.HasSuffix(name, quarantineSufix)
		base := strings.TrimSuffix(name, quarantineSufix)
		seq, ok := parseGenID(base)
		if !ok {
			continue
		}
		infos = append(infos, Info{ID: name, Seq: seq, Quarantined: quarantined, Current: name == current})
	}
	sort.Slice(infos, func(i, j int) bool {
		if infos[i].Seq != infos[j].Seq {
			return infos[i].Seq < infos[j].Seq
		}
		return infos[i].Quarantined && !infos[j].Quarantined // live sorts after its quarantined twin
	})
	return infos
}

// Generations lists every generation (live and quarantined) by sequence.
func (m *Manager) Generations() []Info {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.listLocked(m.cur.Load().id)
}

// Current returns the id of the generation CURRENT names.
func (m *Manager) Current() string { return m.cur.Load().id }

// Graph returns the current generation's graph (immutable; do not mutate).
func (m *Manager) Graph() *graph.Graph { return m.cur.Load().g }

// Geometry returns the current generation's store shape.
func (m *Manager) Geometry() (n, b int) {
	s := m.cur.Load()
	return s.n, s.b
}

// OpenCurrent opens the current generation's store with the manager's
// serving cache options and returns it with its graph and id. The caller
// owns closing the store (the serving layer refcounts it).
func (m *Manager) OpenCurrent() (*store.Store, *graph.Graph, string, error) {
	s := m.cur.Load()
	st, err := store.OpenWithOptions(filepath.Join(m.dir, s.id, storeName), m.opts.Store)
	if err != nil {
		return nil, nil, "", fmt.Errorf("generation: open %s: %w", s.id, err)
	}
	return st, s.g, s.id, nil
}

// Rollback durably re-points CURRENT at the newest generation older than
// the current one and makes it the manager's current state. The
// rolled-back-from generation stays on disk (GC will reap it once it
// ages out), so rolling forward again is just another promotion. Like
// ApplyDeltas it runs under the directory's cross-process lock and
// reports ErrBusy when another process holds it.
func (m *Manager) Rollback() (string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	lock, err := fsx.LockDir(m.dir)
	if err != nil {
		return "", fmt.Errorf("generation: rollback: %w", err)
	}
	defer lock.Unlock()
	cur := m.cur.Load()
	target := ""
	for _, info := range m.listLocked(cur.id) {
		if info.Quarantined || info.Seq >= cur.seq {
			continue
		}
		if openable(m.dir, info.ID) {
			target = info.ID
		}
	}
	if target == "" {
		return "", ErrNoOlder
	}
	if err := writeCurrent(m.dir, target); err != nil {
		return "", err
	}
	seq, _ := parseGenID(target)
	g, err := loadGraph(filepath.Join(m.dir, target, graphName))
	if err != nil {
		return "", fmt.Errorf("generation: rollback graph: %w", err)
	}
	st, err := store.OpenWithOptions(filepath.Join(m.dir, target, storeName), store.Options{})
	if err != nil {
		return "", fmt.Errorf("generation: rollback store: %w", err)
	}
	n, b := st.N(), st.BlockSize()
	st.Close()
	m.cur.Store(&genState{id: target, seq: seq, g: g, n: n, b: b})
	m.rollbacks.Add(1)
	m.lastPromoteNano.Store(time.Now().UnixNano())
	slog.Info("generation: rolled back", "from", cur.id, "to", target)
	return target, nil
}

// gcLocked removes generations beyond the keep-last-K window. The
// current generation is always kept, as is anything newer than it (a
// rollback must leave the roll-forward target alone until it ages out
// naturally). Quarantined directories count against the same window.
func (m *Manager) gcLocked() {
	cur := m.cur.Load()
	infos := m.listLocked(cur.id)
	keep := m.opts.keepLast()
	if len(infos) <= keep {
		return
	}
	hook("mid-gc")
	removed := 0
	for _, info := range infos[:len(infos)-keep] {
		if info.ID == cur.id {
			continue
		}
		if err := os.RemoveAll(filepath.Join(m.dir, info.ID)); err != nil {
			slog.Warn("generation: gc failed", "id", info.ID, "err", err)
			continue
		}
		removed++
		slog.Info("generation: gc removed", "id", info.ID)
	}
	if removed > 0 {
		fsx.FsyncDir(m.dir)
		m.gcRemoved.Add(int64(removed))
	}
}

// RegisterMetrics exposes the lifecycle counters on r. Function-backed
// metrics replace on re-registration, so a reopened manager can rebind
// the same names.
func (m *Manager) RegisterMetrics(r *obs.Registry) {
	r.CounterFunc("apsp_gen_updates_total",
		"Edge-delta batches accepted for processing.",
		func() int64 { return m.updates.Load() })
	r.CounterFunc("apsp_gen_update_failures_total",
		"Delta batches that failed before promotion (validation quarantines included).",
		func() int64 { return m.updateFailures.Load() })
	r.CounterFunc("apsp_gen_quarantined_total",
		"Candidate generations rejected by the validation gate and quarantined on disk — a nonzero value is the promotion-failure alert.",
		func() int64 { return m.quarantines.Load() })
	r.CounterFunc("apsp_gen_promotions_total",
		"Generations validated and promoted to CURRENT.",
		func() int64 { return m.promotions.Load() })
	r.CounterFunc("apsp_gen_rollbacks_total",
		"Explicit rollbacks re-pointing CURRENT at an older generation.",
		func() int64 { return m.rollbacks.Load() })
	r.CounterFunc("apsp_gen_gc_removed_total",
		"Old generation directories reaped by keep-last-K GC.",
		func() int64 { return m.gcRemoved.Load() })
	r.GaugeFunc("apsp_gen_current_seq",
		"Sequence number of the generation CURRENT points at.",
		func() float64 { return float64(m.cur.Load().seq) })
	r.GaugeFunc("apsp_gen_last_update_dirty_rows",
		"Dirty source rows recomputed by the most recent promoted update.",
		func() float64 { return float64(m.lastDirtyRows.Load()) })
	r.GaugeFunc("apsp_gen_age_seconds",
		"Seconds since the served generation last changed (promotion or rollback) — the staleness of the serving data relative to the newest accepted update.",
		func() float64 {
			t := m.lastPromoteNano.Load()
			if t == 0 {
				return 0
			}
			return time.Since(time.Unix(0, t)).Seconds()
		})
}
