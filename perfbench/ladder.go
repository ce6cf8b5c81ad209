package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	logbase "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/readopt"
	"repro/internal/simdisk"
	"repro/internal/txn"
	"repro/internal/wal"
)

// The layer ladder re-issues a sample of the workload's ops at each
// layer's public entry point in turn, outermost first, timing each call
// in a span of the benchmark's own. A layer's self time is the median of
// its rung minus the median of the rung below. Writes below core go to
// probe files, never the live log, so recovery and the checks are not
// affected.

// span is one timed call the benchmark made into a layer. All spans of
// one sampled op share Trace; a rung's Parent is the op's root span.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// selfTimes maps each ladder metric to the rung it measures and the rung
// below it ("" = the bottom rung: the metric is the rung's whole time).
var selfTimes = []struct{ metric, rung, below string }{
	{"logbase.put.self_us", "logbase.put", "cluster.put"},
	{"cluster.put.self_us", "cluster.put", "core.put"},
	{"core.put.self_us", "core.put", "wal.put"},
	{"wal.put.self_us", "wal.put", "dfs.put"},
	{"dfs.put.self_us", "dfs.put", "simdisk.put"},
	{"simdisk.put.self_us", "simdisk.put", ""},
	{"logbase.read.self_us", "logbase.read", "cluster.read"},
	{"cluster.read.self_us", "cluster.read", "core.read"},
	{"core.read.self_us", "core.read", "dfs.read"},
	{"dfs.read.self_us", "dfs.read", "simdisk.read"},
	{"simdisk.read.self_us", "simdisk.read", ""},
	{"logbase.scan.self_us", "logbase.scan", "cluster.scan"},
	{"cluster.scan.self_us", "cluster.scan", "core.scan"},
	{"core.scan.self_us", "core.scan", ""},
	{"logbase.tx.self_us", "logbase.tx", "txn.tx"},
	{"txn.tx.total_us", "txn.tx", ""},
	{"query.agg.self_us", "query.agg", "core.query_scans"},
}

// ladderMetrics turns per-rung samples (µs) into self times. A metric
// whose rung has no samples (the workload has no such op) is 0.
func ladderMetrics(samples map[string][]float64) map[string]float64 {
	out := make(map[string]float64, len(selfTimes))
	for _, st := range selfTimes {
		if len(samples[st.rung]) == 0 {
			out[st.metric] = 0
			continue
		}
		v := median(samples[st.rung])
		if st.below != "" {
			v -= median(samples[st.below])
		}
		out[st.metric] = v
	}
	return out
}

// ladder holds the probes and the recorded spans of one ladder run.
type ladder struct {
	d       *deployment
	chk     *checker
	cl      *cluster.Client
	rng     *rand.Rand
	origin  time.Time
	nextID  uint64
	spans   []span
	samples map[string][]float64

	batcher  *wal.Batcher
	dfsW     *dfs.Writer
	diskFile *simdisk.File
	recLen   int
	version  func(row int64) int64
}

const (
	probeDir   = "perfbench-probe"
	probeRecs  = 256 // records prefilled into the simdisk probe file
	ladderSeed = 0x1add3
)

// runLadder re-issues samples ops of each kind the workload issues.
// Span times count from origin, the timed phase's start, like the
// clients' spans. version reports the last acknowledged version of a
// row, so ladder puts rewrite the value the checks expect.
func runLadder(ctx context.Context, d *deployment, chk *checker, seed int64, samples int, origin time.Time, version func(int64) int64) (*ladder, error) {
	l := &ladder{
		d: d, chk: chk, cl: d.c.NewClient(),
		rng:     rand.New(rand.NewSource(seed ^ ladderSeed)),
		origin:  origin,
		nextID:  1 << 62,
		samples: make(map[string][]float64),
		version: version,
	}
	if err := l.openProbes(); err != nil {
		return nil, err
	}
	defer l.closeProbes()
	var kinds [numOps]bool
	for _, mix := range d.spec.mixes {
		for _, e := range mix {
			kinds[e.op] = true
		}
	}
	for i := 0; i < samples; i++ {
		for op := opKind(0); op < numOps; op++ {
			if !kinds[op] {
				continue
			}
			if err := l.sample(ctx, op); err != nil {
				return nil, fmt.Errorf("ladder %s: %w", op, err)
			}
		}
	}
	return l, nil
}

func (l *ladder) openProbes() error {
	fs := l.d.c.FS()
	log, err := wal.Open(fs, probeDir+"/log", wal.Options{})
	if err != nil {
		return fmt.Errorf("open probe log: %w", err)
	}
	if l.dfsW, err = fs.Create(probeDir + "/dfs"); err != nil {
		return fmt.Errorf("create dfs probe: %w", err)
	}
	if l.diskFile, err = fs.DataNode(0).Disk().Create(probeDir + ".simdisk"); err != nil {
		return fmt.Errorf("create simdisk probe: %w", err)
	}
	rec := wal.Encode(&wal.Record{Kind: wal.KindWrite, Table: mainTable, Tablet: "probe", Group: group,
		Key: rowKey(0), TS: 1, Value: l.d.vals.value(0, 0)})
	l.recLen = len(rec)
	for i := 0; i < probeRecs; i++ {
		if _, err := l.diskFile.Append(rec); err != nil {
			l.diskFile.Close()
			return fmt.Errorf("fill simdisk probe: %w", err)
		}
	}
	// Configured like the servers' batchers: core.Config leaves the
	// group-commit batch and delay at their defaults.
	l.batcher = wal.NewBatcher(log, 0, 0)
	return nil
}

// closeProbes stops the probe batcher and closes the simdisk probe.
func (l *ladder) closeProbes() {
	l.batcher.Close()
	l.diskFile.Close() // only read after the fill, so nothing is lost
}

// rung times one call as a child span of root and records its sample.
func (l *ladder) rung(root *span, name string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	t1 := time.Now()
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	l.nextID++
	l.spans = append(l.spans, span{Trace: root.Trace, ID: l.nextID, Parent: root.ID, Name: name,
		Start: t0.Sub(l.origin).Nanoseconds(), End: t1.Sub(l.origin).Nanoseconds()})
	l.samples[name] = append(l.samples[name], float64(t1.Sub(t0).Nanoseconds())/1e3)
	return nil
}

func (l *ladder) sample(ctx context.Context, op opKind) error {
	l.nextID++
	root := span{Trace: l.nextID, ID: l.nextID, Name: "ladder." + op.String(), Start: time.Since(l.origin).Nanoseconds()}
	var err error
	switch op {
	case opPut:
		err = l.put(ctx, &root, l.rng.Int63n(l.d.spec.rows))
	case opRead:
		err = l.read(ctx, &root, l.rng.Int63n(l.d.spec.rows))
	case opScan:
		err = l.scan(ctx, &root, l.rng.Int63n(l.d.spec.rows))
	case opTx:
		err = l.transfer(ctx, &root)
	case opQuery:
		err = l.rangeAgg(ctx, &root, byte(l.rng.Intn(256)))
	}
	root.End = time.Since(l.origin).Nanoseconds()
	l.spans = append(l.spans, root)
	return err
}

// owner resolves the tablet and tablet server owning key.
func (l *ladder) owner(table string, key []byte) (string, *core.Server, error) {
	tab, err := l.cl.TabletFor(table, key)
	if err != nil {
		return "", nil, err
	}
	srv, err := l.d.c.ServerFor(tab)
	return tab, srv, err
}

func (l *ladder) put(ctx context.Context, root *span, row int64) error {
	key, val := rowKey(row), l.d.vals.value(row, l.version(row))
	tab, srv, err := l.owner(mainTable, key)
	if err != nil {
		return err
	}
	coord := l.d.c.Coord()
	rec := func() *wal.Record {
		return &wal.Record{Kind: wal.KindWrite, Table: mainTable, Tablet: tab, Group: group,
			Key: key, TS: coord.NextTimestamp(), Value: val}
	}
	enc := wal.Encode(rec())
	steps := []struct {
		name string
		fn   func() error
	}{
		{"logbase.put", func() error { return l.d.cc.Put(ctx, mainTable, group, key, val) }},
		{"cluster.put", func() error { return l.cl.Put(mainTable, group, key, val) }},
		{"core.put", func() error { return srv.Write(tab, group, key, coord.NextTimestamp(), val) }},
		{"wal.put", func() error { _, err := l.batcher.Append(rec()); return err }},
		{"dfs.put", func() error { _, err := l.dfsW.Write(enc); return err }},
		{"simdisk.put", func() error { _, err := l.diskFile.Append(enc); return err }},
	}
	for _, s := range steps {
		if err := l.rung(root, s.name, s.fn); err != nil {
			return err
		}
	}
	return nil
}

func (l *ladder) read(ctx context.Context, root *span, row int64) error {
	key := rowKey(row)
	tab, srv, err := l.owner(mainTable, key)
	if err != nil {
		return err
	}
	check := func(rows []core.Row, err error) error {
		if err != nil {
			return err
		}
		if len(rows) != 1 {
			l.chk.fail("ladder read of row %d: %d rows", row, len(rows))
			return nil
		}
		if _, err := l.d.vals.check(row, rows[0].Value); err != nil {
			l.chk.fail("ladder read: %v", err)
		}
		return nil
	}
	if err := l.rung(root, "logbase.read", func() error { return check(l.d.cc.Read(ctx, mainTable, group, key)) }); err != nil {
		return err
	}
	if err := l.rung(root, "cluster.read", func() error { return check(l.cl.Read(mainTable, group, key, readopt.Options{})) }); err != nil {
		return err
	}
	if err := l.rung(root, "core.read", func() error { return check(srv.ReadRow(tab, group, key, readopt.Options{})) }); err != nil {
		return err
	}
	if err := l.dfsRead(root, srv); err != nil {
		return err
	}
	buf := make([]byte, l.recLen)
	off := l.rng.Int63n(probeRecs) * int64(l.recLen)
	return l.rung(root, "simdisk.read", func() error { _, err := l.diskFile.ReadAt(buf, off); return err })
}

// dfsRead reads one record-sized block at a random offset of one of
// srv's live log segments, pinned so compaction cannot remove it.
func (l *ladder) dfsRead(root *span, srv *core.Server) error {
	log := srv.Log()
	var live []wal.SegmentInfo
	for _, si := range log.Segments() {
		if si.Size > int64(2*l.recLen) {
			live = append(live, si)
		}
	}
	if len(live) == 0 {
		return errors.New("dfs.read: no log segment to read")
	}
	si := live[l.rng.Intn(len(live))]
	log.Pin(si.Num)
	defer log.Unpin(si.Num)
	r, err := l.d.c.FS().Open(log.SegmentPath(si.Num))
	if errors.Is(err, dfs.ErrNotFound) {
		return nil // compacted away before the pin: skip this sample
	}
	if err != nil {
		return err
	}
	buf := make([]byte, l.recLen)
	off := l.rng.Int63n(si.Size - int64(l.recLen))
	return l.rung(root, "dfs.read", func() error { _, err := r.ReadAt(buf, off); return err })
}

func (l *ladder) scan(ctx context.Context, root *span, row int64) error {
	start := rowKey(row)
	tab, srv, err := l.owner(mainTable, start)
	if err != nil {
		return err
	}
	count := func(n *int) func(core.Row) bool { return func(core.Row) bool { *n++; return true } }
	var n1, n2, n3 int
	if err := l.rung(root, "logbase.scan", func() error {
		it := l.d.cc.Scan(ctx, mainTable, group, start, nil, logbase.WithLimit(scanLimit))
		for it.Next() {
			n1++
		}
		return it.Close()
	}); err != nil {
		return err
	}
	if err := l.rung(root, "cluster.scan", func() error {
		return l.cl.ScanOpts(ctx, mainTable, group, start, nil, readopt.Options{Limit: scanLimit}, count(&n2))
	}); err != nil {
		return err
	}
	ts := l.d.c.Coord().LastTimestamp()
	if err := l.rung(root, "core.scan", func() error {
		return srv.ParallelScan(ctx, tab, group, core.ReadScanOptions(start, nil, ts, readopt.Options{Limit: scanLimit}),
			func(rows []core.Row) error { n3 += len(rows); return nil })
	}); err != nil {
		return err
	}
	if n1 > scanLimit || n2 > scanLimit || n3 > scanLimit {
		l.chk.fail("ladder scan from row %d: %d/%d/%d rows, limit %d", row, n1, n2, n3, scanLimit)
	}
	return nil
}

func (l *ladder) transfer(ctx context.Context, root *span) error {
	a, b := l.rng.Int63n(l.d.spec.accounts), l.rng.Int63n(l.d.spec.accounts-1)
	if b >= a {
		b++
	}
	ka, kb := accountKey(a), accountKey(b)
	tabA, _, err := l.owner(accountTable, ka)
	if err != nil {
		return err
	}
	tabB, _, err := l.owner(accountTable, kb)
	if err != nil {
		return err
	}
	move := func(get func([]byte) ([]byte, error), put func(k, v []byte) error) error {
		va, err := get(ka)
		if err != nil {
			return err
		}
		vb, err := get(kb)
		if err != nil {
			return err
		}
		ba, okA := leadingNum(va)
		bb, okB := leadingNum(vb)
		if !okA || !okB {
			l.chk.fail("ladder transfer: unreadable balances %q %q", va, vb)
			return errCheck
		}
		if err := put(ka, []byte(fmt.Sprint(int64(ba)-1))); err != nil {
			return err
		}
		return put(kb, []byte(fmt.Sprint(int64(bb)+1)))
	}
	// A failed balance check is already recorded; it is not an op error.
	checked := func(err error) error {
		if errors.Is(err, errCheck) {
			return nil
		}
		return err
	}
	if err := l.rung(root, "logbase.tx", func() error {
		return checked(l.d.cc.RunTxn(ctx, func(tx logbase.Tx) error {
			return move(func(k []byte) ([]byte, error) { return tx.Get(ctx, accountTable, group, k) },
				func(k, v []byte) error { return tx.Put(accountTable, group, k, v) })
		}))
	}); err != nil {
		return err
	}
	tabOf := map[string]string{string(ka): tabA, string(kb): tabB}
	return l.rung(root, "txn.tx", func() error {
		return checked(l.cl.RunTxn(func(t *txn.Txn) error {
			return move(func(k []byte) ([]byte, error) { return t.Get(tabOf[string(k)], group, k) },
				func(k, v []byte) error { return t.Put(tabOf[string(k)], group, k, v) })
		}))
	})
}

func (l *ladder) rangeAgg(ctx context.Context, root *span, b byte) error {
	q := aggQuery(b)
	if err := l.rung(root, "query.agg", func() error {
		res, err := l.d.cc.Query(ctx, mainTable, group, q)
		if err == nil {
			l.d.checkRangeAgg(l.chk, b, res)
		}
		return err
	}); err != nil {
		return err
	}
	router, err := l.d.c.Router(mainTable)
	if err != nil {
		return err
	}
	ts := l.d.c.Coord().LastTimestamp()
	var rows int64
	err = l.rung(root, "core.query_scans", func() error {
		for _, tab := range router.Overlapping(q.Filter.Start, q.Filter.End) {
			srv, err := l.d.c.ServerFor(tab.ID)
			if err != nil {
				return err
			}
			err = srv.ParallelScan(ctx, tab.ID, group, core.ReadScanOptions(q.Filter.Start, q.Filter.End, ts, readopt.Options{}),
				func(rs []core.Row) error { rows += int64(len(rs)); return nil })
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil && rows != l.d.rangeCount[b] {
		l.chk.fail("ladder range scans over byte %#02x: %d rows, want %d", b, rows, l.d.rangeCount[b])
	}
	return err
}
