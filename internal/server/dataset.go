package server

import (
	"fmt"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/relation"
	"repro/paq"
)

// Evaluation methods a dataset serves. NAIVE is deliberately absent: its
// exponential self-join is the paper's cautionary baseline, not something
// a service should expose to untrusted callers. The names resolve
// through paq.ParseMethod — the repository's single source of method
// names.
const (
	MethodDirect       = string(paq.MethodDirect)
	MethodSketchRefine = string(paq.MethodSketchRefine)
)

// DatasetConfig configures dataset registration: the offline
// partitioning warmed at load time and the solver budgets shared by the
// dataset's evaluation methods.
type DatasetConfig struct {
	// Attrs are the partitioning attributes. Empty means every numeric
	// column of the relation — a superset of any query's attributes, so
	// SketchRefine can serve arbitrary queries over the dataset.
	Attrs []string
	// TauFrac is the partition size threshold as a fraction of the
	// dataset; 0 means 0.10 (the paper's scalability setting).
	TauFrac float64
	// Workers bounds partition-build concurrency; 0 means GOMAXPROCS.
	Workers int
	// TimeLimit, MaxNodes, and Gap are the per-ILP solver budgets.
	// Zero-valued fields get paqld defaults (30s, 200k nodes, 1e-4 gap).
	TimeLimit time.Duration
	MaxNodes  int
	Gap       float64
	// Seed steers SketchRefine's refinement order. Fixed per dataset so
	// identical queries give identical answers across requests (and match
	// an in-process evaluation with the same seed).
	Seed int64
	// Racers is the number of SketchRefine refinement orders raced per
	// query. 0 or 1 keeps evaluation deterministic; the differential load
	// checker requires 1.
	Racers int
	// DataDir, when non-empty, makes the dataset durable: its WAL and
	// snapshots live in DataDir/<name>. If that directory already holds
	// state, registration recovers from it — the recovered dataset wins
	// over the relation passed to NewDataset (which then only seeds a
	// brand-new store).
	DataDir string
}

// budgetOptions lowers the relation-independent configuration (solver
// budgets, partitioning shape, concurrency) to paq session options.
func (c DatasetConfig) budgetOptions() []paq.Option {
	tau := c.TauFrac
	if tau <= 0 {
		tau = 0.10
	}
	tl := c.TimeLimit
	if tl == 0 {
		tl = 30 * time.Second
	}
	gap := c.Gap
	if gap == 0 {
		gap = 1e-4
	}
	opts := []paq.Option{
		paq.WithTau(tau),
		paq.WithWorkers(c.Workers),
		paq.WithTimeLimit(tl),
		paq.WithGap(gap),
		paq.WithSeed(c.Seed),
		paq.WithRacers(c.Racers),
		paq.WithWarmPartitioning(),
	}
	if c.MaxNodes > 0 {
		opts = append(opts, paq.WithNodeLimit(c.MaxNodes))
	}
	return opts
}

// options lowers the config to paq session options.
func (c DatasetConfig) options(rel *relation.Relation) []paq.Option {
	attrs := c.Attrs
	if len(attrs) == 0 {
		for i := 0; i < rel.Schema().Len(); i++ {
			col := rel.Schema().Col(i)
			if col.Type.Numeric() {
				attrs = append(attrs, col.Name)
			}
		}
	}
	opts := c.budgetOptions()
	if len(attrs) > 0 {
		opts = append(opts, paq.WithPartitionAttrs(attrs...))
	}
	return opts
}

// Dataset is one registered relation wrapped in a warm paq session: the
// offline partitioning is built at registration, and the session's
// per-method solution caches are shared across all requests that hit
// the dataset.
type Dataset struct {
	name    string
	sess    *paq.Session
	created time.Time
	replica atomic.Bool
}

// NewDataset builds a served dataset: it opens a paq session over the
// relation with an eagerly warmed partitioning (the expensive part of
// registration) and per-method solution caches. With DataDir set the
// session is durable — and if the dataset's store directory already
// holds a snapshot, the recovered state replaces rel entirely (its
// partitionings warm-start from disk, skipping the offline build).
func NewDataset(name string, rel *relation.Relation, cfg DatasetConfig) (*Dataset, error) {
	if name == "" {
		return nil, fmt.Errorf("server: dataset has no name")
	}
	if rel == nil || rel.Len() == 0 {
		return nil, fmt.Errorf("server: dataset %q is empty", name)
	}
	opts := cfg.options(rel)
	if cfg.DataDir != "" {
		opts = append(opts, paq.WithDurability(filepath.Join(cfg.DataDir, name)))
	}
	sess, err := paq.Open(paq.Table(rel), opts...)
	if err != nil {
		return nil, fmt.Errorf("server: dataset %q: %w", name, err)
	}
	return &Dataset{name: name, sess: sess, created: time.Now()}, nil
}

// OpenDataset recovers a durable dataset from DataDir/<name> alone — no
// seed relation — for datasets discovered on disk at boot that no flag
// or config mentions anymore. The schema (and with it the partitioning
// attribute universe) comes from the snapshot; cfg supplies the solver
// budgets.
func OpenDataset(name string, cfg DatasetConfig) (*Dataset, error) {
	if name == "" {
		return nil, fmt.Errorf("server: dataset has no name")
	}
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("server: dataset %q: OpenDataset needs a data dir", name)
	}
	// options(nil) would resolve the partitioning attribute default from
	// the relation, which is not loaded yet; with empty Attrs the warm
	// build resolves the same all-numeric-columns default from the
	// recovered schema and hits the restored partitioning. Explicit
	// Attrs must still be passed through, or the warm build would key on
	// the all-numeric default — missing the restored partitioning, paying
	// a full rebuild at boot, and serving the wrong attribute set.
	opts := append(cfg.budgetOptions(),
		paq.WithDurability(filepath.Join(cfg.DataDir, name)))
	if len(cfg.Attrs) > 0 {
		opts = append(opts, paq.WithPartitionAttrs(cfg.Attrs...))
	}
	sess, err := paq.Open(nil, opts...)
	if err != nil {
		return nil, fmt.Errorf("server: dataset %q: %w", name, err)
	}
	return &Dataset{name: name, sess: sess, created: time.Now()}, nil
}

// NewDatasetFromSession wraps an existing warm session (e.g. one shared
// with an in-process differential checker) as a served dataset. Clone
// the session first if the caches must stay independent.
func NewDatasetFromSession(name string, sess *paq.Session) (*Dataset, error) {
	if name == "" {
		return nil, fmt.Errorf("server: dataset has no name")
	}
	if sess == nil {
		return nil, fmt.Errorf("server: dataset %q has no session", name)
	}
	return &Dataset{name: name, sess: sess, created: time.Now()}, nil
}

// Name returns the dataset's registry name.
func (d *Dataset) Name() string { return d.name }

// Session returns the dataset's paq session.
func (d *Dataset) Session() *paq.Session { return d.sess }

// Created returns when the dataset object was built — the epoch of its
// per-dataset counters, surfaced as the "since" stamp in /stats.
func (d *Dataset) Created() time.Time { return d.created }

// Rel returns the underlying relation.
func (d *Dataset) Rel() *relation.Relation { return d.sess.Rel() }

// Partitioning describes the warm offline partitioning.
func (d *Dataset) Partitioning() (*paq.PartitionInfo, error) { return d.sess.Partitioning() }

// Version returns the dataset's current version (bumped by every row
// mutation).
func (d *Dataset) Version() uint64 { return d.sess.Version() }

// DurStats reports the dataset's durability state (Durable=false for
// in-memory datasets).
func (d *Dataset) DurStats() paq.DurStats { return d.sess.DurStats() }

// SetReplica marks (or unmarks) the dataset as a replication
// follower. A replica applies its leader's WAL by physical row index,
// so its row layout must never be renumbered out from under the
// stream: background maintenance skips compaction and snapshotting for
// it, and Close preserves the layout (the replica's own WAL carries
// any tombstones across a restart). Promotion clears the mark, after
// which the dataset is maintained like any other.
func (d *Dataset) SetReplica(v bool) { d.replica.Store(v) }

// IsReplica reports whether the dataset is a replication follower.
func (d *Dataset) IsReplica() bool { return d.replica.Load() }

// Close flushes a durable dataset (final snapshot) and closes its
// store; a no-op for in-memory datasets. Replicas close without
// compacting (see SetReplica).
func (d *Dataset) Close() error {
	if d.IsReplica() {
		return d.sess.ClosePreservingLayout()
	}
	return d.sess.Close()
}

// Methods lists the methods the dataset serves, sorted.
func (d *Dataset) Methods() []string {
	return []string{MethodDirect, MethodSketchRefine}
}

// serves reports whether the dataset exposes a method.
func (d *Dataset) serves(m paq.Method) bool {
	return m == paq.MethodDirect || m == paq.MethodSketchRefine
}
