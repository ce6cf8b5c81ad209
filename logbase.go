// Package logbase is a Go reproduction of "LogBase: A Scalable
// Log-structured Database System in the Cloud" (Vo, Wang, Agrawal,
// Chen, Ooi — PVLDB 5(10), 2012).
//
// LogBase is a log-only database engine: the write-ahead log is the
// only data repository. Writes are a single sequential append; reads go
// through dense in-memory multiversion indexes pointing into the log;
// deletes persist invalidation records; periodic compaction re-clusters
// the log; checkpoints bound recovery to an index reload plus a short
// redo of the log tail. Transactions spanning records and servers get
// snapshot isolation through multiversion optimistic concurrency
// control with write locks acquired at validation.
//
// # The Store interface
//
// One engine, two deployments, one API: the Store interface is the
// supported client surface, implemented by both entry points:
//
//   - Open returns an embedded single-server *DB — the quickest way to
//     use the engine as a library.
//   - NewCluster starts a simulated multi-server deployment (tablet
//     servers over a replicated DFS with a master and failover), the
//     configuration the paper evaluates at 3–24 nodes; NewClusterClient
//     wraps it in the same Store surface.
//
// Code written against Store — harnesses, examples, protocol servers —
// runs unmodified on either backend. Every method takes a
// context.Context: cancellation and deadlines propagate down into the
// tablet-server scan loops and the cluster scatter-gather, so a slow
// analytical read can be abandoned mid-flight without leaking
// goroutines. Range and full scans return a pull-based Iterator
// (Next/Row/Err/Close) and accept composable push-down ReadOption
// values — limits, reverse order, snapshot pinning, prefixes, and a
// serializable key/value predicate set — all evaluated inside the
// tablet server so only the rows the caller consumes cross the wire;
// Read unifies Get/GetAt/Versions behind the same options. The old
// push-style callbacks survive as thin adapters
// (ScanFunc/FullScanFunc). Bulk loads go through WriteBatch, which
// buffers mutations and flushes them as one group append sweep through
// the log instead of one durable append per record.
//
// Both backends expose the analytical query path on top of the same
// log: because every committed version stays addressable, Query runs
// snapshot-consistent scans and aggregations (COUNT/SUM/MIN/MAX/AVG
// with GROUP BY) pinned at one timestamp, sharded across worker
// goroutines with key- and time-range predicates pushed below the log
// fetch. QueryAt pins a historical timestamp (time travel), SnapshotAt
// returns a reusable pinned handle, and the cluster backend scatters
// the query to every tablet server and gathers mergeable partial
// aggregates. See logbase_query.go for the types and internal/query
// for the executor.
//
// The underlying substrates (DFS, log repository, B-link multiversion
// index, LSM-tree, coordination service) live in internal/ packages;
// this package is the supported surface.
package logbase

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/txn"
)

// ErrNotFound is returned when a key or version does not exist.
var ErrNotFound = core.ErrNotFound

// ErrConflict is returned when a transaction loses first-committer-wins
// validation; retry the transaction (or use RunTx).
var ErrConflict = txn.ErrConflict

// Row is one record version. Its Value is read-only: a point read served
// from the read buffer shares the buffered bytes with every other reader
// instead of copying them. Copy a value before modifying it.
type Row = core.Row

// Options configures an embedded DB.
type Options struct {
	// SegmentSize is the log segment rotation size (default 64 MB).
	SegmentSize int64
	// ReadCacheBytes bounds the optional read buffer; 0 disables it.
	ReadCacheBytes int64
	// GroupCommit batches concurrent log appends.
	GroupCommit bool
	// GroupCommitBatch and GroupCommitDelay tune the batcher (0 = 64
	// records / 200µs).
	GroupCommitBatch int
	GroupCommitDelay time.Duration
	// CompactKeepVersions bounds versions kept per key at compaction;
	// 0 keeps all committed versions.
	CompactKeepVersions int
	// AutoCompact paces the background incremental compactor: unsorted
	// tail segments and segments whose garbage ratio crosses
	// AutoCompact.GarbageRatio are rewritten into sorted, footed
	// segments every AutoCompact.Interval (zero interval disables the
	// loop). This is what keeps the clustered scan fast path engaged
	// under sustained write+scan load without manual Compact calls.
	AutoCompact AutoCompactConfig
	// IndexFlushUpdates triggers an index-file merge after this many
	// updates per column group (0 = only explicit checkpoints).
	IndexFlushUpdates int64
	// Replication is the DFS replication factor (default 3, clamped to
	// DataNodes).
	Replication int
	// DataNodes is the simulated DFS size (default 3).
	DataNodes int
	// Metrics, when set, is the registry the engine registers its
	// counters, gauges, and latency histograms into (nil = the DB creates
	// a private registry, reachable via DB.Metrics).
	Metrics *obs.Registry
	// DisableMetrics turns off hot-path latency recording. Scrape-time
	// gauges over the existing atomic counters stay registered — they
	// cost the request paths nothing.
	DisableMetrics bool
	// SlowOpLog, when set, receives one rendered trace tree per traced
	// operation whose root span took at least SlowOpThreshold (zero
	// threshold = every traced op). Enabling it turns on request
	// tracing; leaving it nil keeps tracing completely off.
	SlowOpLog func(tree string)
	// SlowOpThreshold is the minimum root-span duration for emission to
	// SlowOpLog.
	SlowOpThreshold time.Duration
	// Faults, when set, is the deterministic fault-injection registry
	// threaded through the simulated disks, DFS block I/O, WAL and the
	// engine's crash points (see internal/fault). Nil disables every
	// hook — the production path.
	Faults *fault.Registry
}

// DB is an embedded single-server LogBase instance. It implements
// Store; *DB is safe for concurrent use (including CreateTable racing
// reads from other goroutines, e.g. concurrent protocol sessions).
type DB struct {
	fs     *dfs.DFS
	svc    *coord.Service
	server *core.Server
	txns   *txn.Manager
	tracer *obs.Tracer
	tmu    sync.RWMutex
	tables map[string]tableMeta
	views  viewSet
	opts   Options
	dir    string

	// rmu guards the read-replica set (logbase_repl.go); rrNext is the
	// round-robin routing counter, replicaSeq the id allocator.
	rmu        sync.RWMutex
	replicas   []*Replica
	replicaSeq int
	rrNext     atomic.Uint32
}

var _ Store = (*DB)(nil)

type tableMeta struct {
	tablet string
	groups map[string]bool
}

// Open creates (or reopens) an embedded DB rooted at dir. Reopening a
// directory with existing data requires declaring the same tables with
// CreateTable and then calling Recover.
func Open(dir string, opts Options) (*DB, error) {
	nodes := opts.DataNodes
	if nodes <= 0 {
		nodes = 3
	}
	fs, err := dfs.New(dir, dfs.Config{
		NumDataNodes:      nodes,
		ReplicationFactor: opts.Replication,
		BlockSize:         4 << 20,
		Faults:            opts.Faults,
	})
	if err != nil {
		return nil, err
	}
	return openOn(fs, dir, opts)
}

func openOn(fs *dfs.DFS, dir string, opts Options) (*DB, error) {
	server, err := core.NewServer(fs, "embedded", core.Config{
		SegmentSize:         opts.SegmentSize,
		ReadCacheBytes:      opts.ReadCacheBytes,
		GroupCommit:         opts.GroupCommit,
		GroupCommitBatch:    opts.GroupCommitBatch,
		GroupCommitDelay:    opts.GroupCommitDelay,
		CompactKeepVersions: opts.CompactKeepVersions,
		IndexFlushUpdates:   opts.IndexFlushUpdates,
		AutoCompact:         opts.AutoCompact,
		Metrics:             opts.Metrics,
		DisableMetrics:      opts.DisableMetrics,
		Faults:              opts.Faults,
	})
	if err != nil {
		return nil, err
	}
	db := &DB{
		fs:     fs,
		svc:    coord.New(),
		server: server,
		tables: make(map[string]tableMeta),
		opts:   opts,
		dir:    dir,
	}
	if opts.SlowOpLog != nil {
		db.tracer = &obs.Tracer{
			Threshold: opts.SlowOpThreshold,
			Sink:      opts.SlowOpLog,
			SlowOps:   server.Metrics().Counter("logbase_slow_ops_total", "traces emitted to the slow-op log", nil),
		}
	}
	db.txns = txn.NewManager(db.svc, txn.ResolverFunc(func(string) (*core.Server, error) {
		return db.server, nil
	}))
	return db, nil
}

// Reopen simulates a crash-restart over the same storage: in-memory
// state is discarded; call CreateTable for the schema and Recover to
// rebuild the indexes.
func (db *DB) Reopen() (*DB, error) { return openOn(db.fs, db.dir, db.opts) }

// CreateTable declares a table with its column groups. Idempotent.
func (db *DB) CreateTable(name string, groups ...string) error {
	if len(groups) == 0 {
		return errors.New("logbase: a table needs at least one column group")
	}
	db.tmu.Lock()
	defer db.tmu.Unlock()
	if _, ok := db.tables[name]; ok {
		return nil
	}
	tablet := name + "/0000"
	db.server.AddTablet(tabletSpec(name, tablet), groups)
	gm := make(map[string]bool, len(groups))
	for _, g := range groups {
		gm[g] = true
	}
	db.tables[name] = tableMeta{tablet: tablet, groups: gm}
	db.rmu.RLock()
	for _, r := range db.replicas {
		r.AddTablet(tabletSpec(name, tablet), groups)
	}
	db.rmu.RUnlock()
	return nil
}

func (db *DB) table(name, group string) (tableMeta, error) {
	db.tmu.RLock()
	tm, ok := db.tables[name]
	db.tmu.RUnlock()
	if !ok {
		return tableMeta{}, errors.New("logbase: unknown table " + name)
	}
	if !tm.groups[group] {
		return tableMeta{}, errors.New("logbase: table " + name + " has no column group " + group)
	}
	return tm, nil
}

// Put writes a row version into a column group (auto-commit, durable on
// return).
func (db *DB) Put(ctx context.Context, table, group string, key, value []byte) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	tm, err := db.table(table, group)
	if err != nil {
		return err
	}
	_, sp := db.tracer.Root(ctx, "db.put")
	sp.Label("table", table)
	defer sp.Finish()
	return db.server.Write(tm.tablet, group, key, db.svc.NextTimestamp(), value)
}

// Read is the unified point read: the visible version of the row
// (latest, or pinned with WithSnapshot), or — with WithAllVersions —
// its version history, oldest first (newest first with WithReverse),
// optionally limited and value-filtered. All options are evaluated
// inside the tablet server (core.Server.ReadRow).
func (db *DB) Read(ctx context.Context, table, group string, key []byte, opts ...ReadOption) ([]Row, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	tm, err := db.table(table, group)
	if err != nil {
		return nil, err
	}
	_, sp := db.tracer.Root(ctx, "db.read")
	sp.Label("table", table)
	defer sp.Finish()
	ro := resolveReadOptions(opts)
	src := db.server
	if rep := db.replicaFor(ro.Snapshot, ro); rep != nil {
		src = rep.Server()
	}
	return src.ReadRow(tm.tablet, group, key, ro)
}

// Get returns the latest version of a row. Thin adapter over Read.
func (db *DB) Get(ctx context.Context, table, group string, key []byte) (Row, error) {
	return firstRow(db.Read(ctx, table, group, key))
}

// GetAt returns the version visible at snapshot ts (multiversion
// access; timestamps come from committed writes' Row.TS). Thin adapter
// over Read with WithSnapshot; ts 0 means "latest", matching the other
// snapshot surfaces (QueryAt, SnapshotAt).
func (db *DB) GetAt(ctx context.Context, table, group string, key []byte, ts int64) (Row, error) {
	return firstRow(db.Read(ctx, table, group, key, WithSnapshot(ts)))
}

// Versions returns all stored versions of a row, oldest first. Thin
// adapter over Read with WithAllVersions.
func (db *DB) Versions(ctx context.Context, table, group string, key []byte) ([]Row, error) {
	return db.Read(ctx, table, group, key, WithAllVersions())
}

// firstRow adapts Read's slice result to the single-row Get/GetAt
// shape.
func firstRow(rows []Row, err error) (Row, error) {
	if err != nil {
		return Row{}, err
	}
	return rows[0], nil
}

// Delete removes a row (persisting an invalidation record).
func (db *DB) Delete(ctx context.Context, table, group string, key []byte) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	tm, err := db.table(table, group)
	if err != nil {
		return err
	}
	_, sp := db.tracer.Root(ctx, "db.delete")
	sp.Label("table", table)
	defer sp.Finish()
	return db.server.Delete(tm.tablet, group, key, db.svc.NextTimestamp())
}

// Scan iterates the visible version of each key in [start, end) in key
// order (descending with WithReverse); nil bounds are open. The scan
// runs against the snapshot current at the call (or the WithSnapshot
// timestamp); limits, filters, and the prefix are evaluated inside the
// tablet server, and rows are fetched in batches through coalesced log
// reads. Always Close the iterator.
func (db *DB) Scan(ctx context.Context, table, group string, start, end []byte, opts ...ReadOption) Iterator {
	tm, err := db.table(table, group)
	if err != nil {
		return errIter(err)
	}
	ro := resolveReadOptions(opts)
	ts := ro.Snapshot
	if ts == 0 {
		ts = db.svc.LastTimestamp()
	}
	if ro.BatchSize <= 0 {
		ro.BatchSize = defaultIterBatch
	}
	// Replica routing is safe even for the implicit latest pin:
	// watermark >= ts means the replica's state at ts is identical to
	// the primary's, so the caller's own writes (all at or below ts) are
	// there. WithPrimary opts out.
	src := db.server
	if rep := db.replicaFor(ts, ro); rep != nil {
		src = rep.Server()
	}
	return newRowIter(ctx, func(ictx context.Context, emit func([]Row) error) error {
		// The root span lives inside the producer so it covers the whole
		// streamed scan (the Scan call itself returns immediately).
		ictx, sp := db.tracer.Root(ictx, "db.scan")
		sp.Label("table", table)
		defer sp.Finish()
		return src.ParallelScan(ictx, tm.tablet, group, core.ReadScanOptions(start, end, ts, ro), emit)
	})
}

// FullScan iterates every live row in log order (the batch-analytics
// path), with push-down options evaluated in the engine's log sweep
// (WithReverse is ignored: the contract is log order). Always Close
// the iterator.
func (db *DB) FullScan(ctx context.Context, table, group string, opts ...ReadOption) Iterator {
	tm, err := db.table(table, group)
	if err != nil {
		return errIter(err)
	}
	ro := resolveReadOptions(opts)
	if ro.Snapshot == 0 {
		// Pin now, like the cluster backend: both Store implementations
		// must see the same rows when writers race the scan.
		ro.Snapshot = db.svc.LastTimestamp()
	}
	src := db.server
	if rep := db.replicaFor(ro.Snapshot, ro); rep != nil {
		src = rep.Server()
	}
	return newRowIter(ctx, func(ictx context.Context, emit func([]Row) error) error {
		ictx, sp := db.tracer.Root(ictx, "db.fullscan")
		sp.Label("table", table)
		defer sp.Finish()
		fn, flush, failed := collectEmit(emit)
		if err := src.FullScanOpts(ictx, tm.tablet, group, ro, fn); err != nil {
			return err
		}
		if err := failed(); err != nil {
			return err
		}
		return flush()
	})
}

// ScanFunc is the push-style adapter over Scan: it streams rows to fn
// until fn returns false, the range is exhausted, or ctx is cancelled.
func (db *DB) ScanFunc(ctx context.Context, table, group string, start, end []byte, fn func(Row) bool) error {
	return iterate(db.Scan(ctx, table, group, start, end), fn)
}

// FullScanFunc is the push-style adapter over FullScan.
func (db *DB) FullScanFunc(ctx context.Context, table, group string, fn func(Row) bool) error {
	return iterate(db.FullScan(ctx, table, group), fn)
}

// iterate drains it into fn, stopping early when fn returns false.
func iterate(it Iterator, fn func(Row) bool) error {
	defer it.Close()
	for it.Next() {
		if !fn(it.Row()) {
			it.Close()
			break
		}
	}
	return it.Err()
}

// ctxErr normalises a possibly-nil context's error.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// Batch returns an empty WriteBatch bound to this DB. Flushing it
// persists all buffered mutations in one append sweep through the log
// (one group-committed append instead of one per record) — the bulk-
// load path.
func (db *DB) Batch() *WriteBatch {
	return &WriteBatch{apply: db.applyBatch}
}

// applyBatch persists ops through one atomic server append: on any
// error nothing was applied, so the nil index slice tells Flush to
// keep the whole batch for retry.
func (db *DB) applyBatch(ctx context.Context, ops []batchOp) ([]int, error) {
	writes := make([]core.BatchWrite, len(ops))
	for i, op := range ops {
		tm, err := db.table(op.table, op.group)
		if err != nil {
			return nil, err
		}
		writes[i] = core.BatchWrite{
			Tablet: tm.tablet, Group: op.group, Key: op.key, Value: op.value,
			TS: db.svc.NextTimestamp(), Delete: op.delete,
		}
	}
	return nil, db.server.ApplyBatch(writes)
}

// Txn is a snapshot-isolation transaction over the embedded DB; it
// implements Tx.
type Txn struct {
	db *DB
	t  *txn.Txn
}

var _ Tx = (*Txn)(nil)

// Begin starts a transaction.
func (db *DB) Begin(ctx context.Context) Tx { return &Txn{db: db, t: db.txns.Begin()} }

// Get reads a row at the transaction snapshot. The value is read-only
// (see Row).
func (tx *Txn) Get(ctx context.Context, table, group string, key []byte) ([]byte, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	tm, err := tx.db.table(table, group)
	if err != nil {
		return nil, err
	}
	return tx.t.Get(tm.tablet, group, key)
}

// Put buffers a transactional write.
func (tx *Txn) Put(table, group string, key, value []byte) error {
	tm, err := tx.db.table(table, group)
	if err != nil {
		return err
	}
	return tx.t.Put(tm.tablet, group, key, value)
}

// Delete buffers a transactional delete.
func (tx *Txn) Delete(table, group string, key []byte) error {
	tm, err := tx.db.table(table, group)
	if err != nil {
		return err
	}
	return tx.t.Delete(tm.tablet, group, key)
}

// Scan streams snapshot-visible rows in [start, end).
func (tx *Txn) Scan(ctx context.Context, table, group string, start, end []byte, fn func(Row) bool) error {
	tm, err := tx.db.table(table, group)
	if err != nil {
		return err
	}
	return tx.t.Scan(ctx, tm.tablet, group, start, end, fn)
}

// Commit validates and commits; ErrConflict means retry.
func (tx *Txn) Commit(ctx context.Context) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	return tx.t.Commit()
}

// Abort discards the transaction.
func (tx *Txn) Abort() { tx.t.Abort() }

// RunTxn runs fn in a transaction, retrying validation conflicts. It is
// the method form of RunTx.
func (db *DB) RunTxn(ctx context.Context, fn func(Tx) error) error {
	return RunTx(ctx, db, fn)
}

// Extractor derives a secondary-index key from a row's value; nil means
// "don't index this row".
type Extractor = core.Extractor

// RegisterSecondaryIndex creates a secondary index over a column group
// (the paper's §5 future-work extension): rows become findable by an
// extracted attribute at the cost of one extra in-memory index, with
// lookups costing an index descent plus one log seek per match.
// Existing rows are backfilled.
func (db *DB) RegisterSecondaryIndex(name, table, group string, extract Extractor) error {
	tm, err := db.table(table, group)
	if err != nil {
		return err
	}
	return db.server.RegisterSecondaryIndex(name, tm.tablet, group, extract)
}

// LookupSecondary returns rows whose extracted attribute equals secKey,
// in primary-key order.
func (db *DB) LookupSecondary(name string, secKey []byte) ([]Row, error) {
	return db.server.LookupSecondary(name, secKey)
}

// ScanSecondaryRange streams rows whose extracted attribute falls in
// [start, end), ordered by (attribute, primary key).
func (db *DB) ScanSecondaryRange(name string, start, end []byte, fn func(secKey []byte, r Row) bool) error {
	return db.server.ScanSecondaryRange(name, start, end, fn)
}

// Checkpoint flushes the in-memory indexes and writes a recovery
// manifest.
func (db *DB) Checkpoint() error { return db.server.Checkpoint() }

// AutoCompactConfig tunes the background incremental compactor; see
// Options.AutoCompact.
type AutoCompactConfig = core.AutoCompactConfig

// CompactionInfo is the storage-layout observability snapshot: see
// DB.CompactionInfo and the STATS protocol command.
type CompactionInfo = core.CompactionInfo

// Compact vacuums the log: obsolete versions, deleted rows and
// uncommitted transactional writes are dropped, survivors re-clustered
// by (table, group, key, timestamp). With Options.AutoCompact enabled
// this is rarely needed — the background compactor keeps the log
// clustered incrementally.
func (db *DB) Compact() (core.CompactionStats, error) { return db.server.Compact() }

// CompactSegments rewrites only the given segments (incremental
// compaction): records still live per the in-memory indexes are
// re-clustered into fresh sorted segments and the inputs reclaimed,
// while reads and writes keep flowing.
func (db *DB) CompactSegments(nums []uint32) (core.CompactionStats, error) {
	return db.server.CompactSegments(nums)
}

// CompactionInfo reports cumulative compaction counters and the
// current segment layout (sorted fraction, per-segment garbage).
func (db *DB) CompactionInfo() CompactionInfo { return db.server.CompactionInfo() }

// SortedFraction is the fraction of live log bytes in sorted segments
// (1.0 = fully clustered; analytical scans are sequential reads).
func (db *DB) SortedFraction() float64 { return db.server.SortedFraction() }

// Recover rebuilds in-memory state after Reopen: index files from the
// last checkpoint plus a redo of the log tail. The timestamp oracle is
// advanced past every restored commit so "latest" snapshot reads (e.g.
// unpinned scans) see the recovered data immediately.
func (db *DB) Recover() (core.RecoveryStats, error) {
	st, err := db.server.Recover()
	if err == nil {
		db.svc.AdvanceTo(st.MaxTS)
	}
	return st, err
}

// ScrubReport summarises one Scrub pass; see core.ScrubReport.
type ScrubReport = core.ScrubReport

// Scrub verifies every log segment against all DFS replicas (record
// frames and sorted-segment footer CRCs), repairs corrupt replica
// blocks from a healthy peer, and reports ranges where every replica
// is corrupt. A second Scrub after a repair pass reports zero defects.
func (db *DB) Scrub() (ScrubReport, error) { return db.server.Scrub() }

// Stats exposes engine counters.
func (db *DB) Stats() *core.ServerStats { return db.server.Stats() }

// StatsView returns one mutually-consistent snapshot of the server's
// cumulative counters (see core.StatsView).
func (db *DB) StatsView() core.StatsView { return db.server.StatsView() }

// Metrics returns the registry holding the engine's counters, gauges,
// and latency histograms (Options.Metrics, or the DB's private
// registry). Serve it over HTTP with obs.Handler / obs.ListenAndServeMetrics.
func (db *DB) Metrics() *obs.Registry { return db.server.Metrics() }

// Tracer returns the request tracer, or nil when Options.SlowOpLog was
// not set.
func (db *DB) Tracer() *obs.Tracer { return db.tracer }

// IndexMemBytes estimates in-memory index size (the paper budgets ~24
// bytes per entry).
func (db *DB) IndexMemBytes() int64 { return db.server.IndexMemBytes() }

// LogSize returns the live log size in bytes.
func (db *DB) LogSize() int64 { return db.server.Log().Size() }

// Server exposes the underlying tablet server for advanced use.
func (db *DB) Server() *core.Server { return db.server }

// Close releases the DB's background resources: materialized-view
// apply goroutines and the group-commit batcher are stopped (flushing
// in-flight appends first), and open changefeeds are closed. Data is
// already durable (appends are synchronous); an explicit Checkpoint
// before Close speeds up the next Recover. Idempotent.
func (db *DB) Close() error {
	db.views.closeAll()
	db.rmu.Lock()
	reps := db.replicas
	db.replicas = nil
	db.rmu.Unlock()
	for _, r := range reps {
		r.Close()
	}
	return db.server.Close()
}

// Cluster re-exports the simulated multi-server deployment.
type Cluster = cluster.Cluster

// ClusterConfig configures a simulated cluster.
type ClusterConfig = cluster.Config

// TableSpec declares a table for a cluster.
type TableSpec = cluster.TableSpec

// Client is a low-level cluster routing client (one per goroutine).
// Most callers want NewClusterClient, the concurrency-safe Store
// implementation wrapping a pool of these.
type Client = cluster.Client

// NewCluster starts a simulated multi-server LogBase deployment.
func NewCluster(dir string, cfg ClusterConfig) (*Cluster, error) {
	return cluster.New(dir, cfg)
}

// Elapsed is a tiny helper used by examples to report wall times.
func Elapsed(start time.Time) time.Duration { return time.Since(start) }
