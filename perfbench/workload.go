package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"time"

	logbase "repro"
	"repro/internal/ycsb"
)

type opKind int

const (
	opPut opKind = iota
	opRead
	opTx
	opScan
	opQuery
	numOps
)

var opNames = [numOps]string{"put", "read", "tx", "scan", "query"}

// rootSpanNames names the span a traced run wraps each client op in.
var rootSpanNames = [numOps]string{"logbase.put", "logbase.read", "logbase.tx", "logbase.scan", "logbase.query"}

func (k opKind) String() string { return opNames[k] }

type warmKind int

const (
	warmNone warmKind = iota
	// warmAllRows reads every row once, filling the read caches.
	warmAllRows
	// warmZipfReads issues one Zipfian read per row.
	warmZipfReads
	// warmCompact compacts the preload into sorted segments.
	warmCompact
)

const (
	zipfTheta = 0.99
	scanLimit = 100
	// maxTransfer bounds the amount one transfer moves.
	maxTransfer = 10
)

type mixEntry struct {
	op     opKind
	weight int // percent
}

// workloadSpec is one named workload: its data, its deployment knobs and
// each client's op mix.
type workloadSpec struct {
	name, why    string
	rows         int64
	accounts     int64
	segmentBytes int64 // 0 = the server default
	autoCompact  time.Duration
	warm         warmKind
	zipfReads    bool // reads draw rows from a scrambled Zipfian, else uniform
	mixes        [numClients][]mixEntry
	// primary is the op the workload exists to measure: its median
	// latency is the workload's primary_p50_us.
	primary  opKind
	failover bool
}

var workloads = []workloadSpec{
	{
		name: "write-heavy",
		why:  "the write path (routing, txn/2PC, core write, WAL group commit, DFS replica pipeline, simdisk writes) does almost all the work; rows fit the caches; ends with a failover",
		rows: 50_000, accounts: 1000,
		warm: warmAllRows,
		mixes: [numClients][]mixEntry{
			{{opPut, 90}, {opRead, 5}, {opTx, 5}},
			{{opPut, 90}, {opRead, 5}, {opTx, 5}},
		},
		primary:  opPut,
		failover: true,
	},
	{
		name: "read-zipf",
		why:  "index lookup, read cache, WAL random reads and DFS reads do the work over rows 2.7x the caches; the write path does none",
		rows: 250_000,
		warm: warmZipfReads, zipfReads: true,
		mixes: [numClients][]mixEntry{
			{{opRead, 100}},
			{{opRead, 100}},
		},
		primary: opRead,
	},
	{
		name: "scan-mix",
		why:  "limited scans and range aggregates compete with puts and background compaction over small segments: clustered vs index scan paths and the query executor",
		rows: 100_000,
		// Small segments, so puts seal several per run and the background
		// compactor cycles several times while clients run.
		segmentBytes: 16 << 20, autoCompact: 200 * time.Millisecond,
		warm: warmCompact,
		mixes: [numClients][]mixEntry{
			{{opScan, 90}, {opQuery, 10}},
			{{opPut, 100}},
		},
		primary: opScan,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// checker collects correctness failures. A failed check fails the run;
// it is not an op error.
type checker struct {
	mu    sync.Mutex
	n     int
	first []string
}

func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	if len(c.first) < 10 {
		c.first = append(c.first, fmt.Sprintf(format, args...))
	}
}

func (c *checker) failures() (int, []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n, append([]string(nil), c.first...)
}

// errCheck aborts a transaction whose reads failed a check.
var errCheck = errors.New("check failed")

// client is one closed-loop client: it sends its next request only
// after the previous reply.
type client struct {
	id  int
	d   *deployment
	chk *checker
	rng *rand.Rand
	mix []mixEntry
	// Rows this client writes: row = j*writers + writerIdx. Rows are
	// owned by one writer, so each knows the last version it wrote.
	writers, writerIdx int64
	written            map[int64]int64 // row -> last acknowledged version
	userBytes          int64           // key+value bytes of acknowledged writes

	readGen, acctGen ycsb.Generator
	sortedKeys       [][]byte // every row key in ascending order (scan checks)

	lat   [][numOps]opLatencies // per round of the timed phase
	spans []span
}

func (d *deployment) newClients(seed int64, chk *checker) []*client {
	var writers int64
	idx := make([]int64, numClients)
	for c, mix := range d.spec.mixes {
		idx[c] = -1
		for _, e := range mix {
			if e.op == opPut {
				idx[c] = writers
				writers++
				break
			}
		}
	}
	var readGen ycsb.Generator = ycsb.Uniform{N: d.spec.rows}
	if d.spec.zipfReads {
		readGen = ycsb.NewScrambledZipfian(d.spec.rows, zipfTheta)
	}
	var acctGen ycsb.Generator
	if d.spec.accounts > 1 {
		acctGen = ycsb.NewZipfian(d.spec.accounts, zipfTheta)
	}
	var sorted [][]byte
	for _, mix := range d.spec.mixes {
		for _, e := range mix {
			if e.op == opScan && sorted == nil {
				sorted = d.sortedRowKeys()
			}
		}
	}
	out := make([]*client, numClients)
	for c := range out {
		out[c] = &client{
			id: c, d: d, chk: chk,
			rng:     rand.New(rand.NewSource(seed*1_000_003 + int64(c))),
			mix:     d.spec.mixes[c],
			writers: writers, writerIdx: idx[c],
			written: make(map[int64]int64),
			readGen: readGen, acctGen: acctGen, sortedKeys: sorted,
		}
	}
	return out
}

func (d *deployment) sortedRowKeys() [][]byte {
	keys := make([][]byte, d.spec.rows)
	for i := range keys {
		keys[i] = rowKey(int64(i))
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
	return keys
}

func (cl *client) pick() opKind {
	r := cl.rng.Intn(100)
	for _, e := range cl.mix {
		if r < e.weight {
			return e.op
		}
		r -= e.weight
	}
	return cl.mix[len(cl.mix)-1].op
}

// ownedRow draws a uniform row among the rows this client writes.
func (cl *client) ownedRow() int64 {
	n := (cl.d.spec.rows - cl.writerIdx + cl.writers - 1) / cl.writers
	return cl.rng.Int63n(n)*cl.writers + cl.writerIdx
}

func (cl *client) do(ctx context.Context, op opKind) error {
	switch op {
	case opPut:
		return cl.put(ctx, cl.ownedRow())
	case opRead:
		return cl.read(ctx, cl.readGen.Next(cl.rng))
	case opTx:
		return cl.transfer(ctx)
	case opScan:
		return cl.scan(ctx, cl.rng.Int63n(cl.d.spec.rows))
	case opQuery:
		return cl.rangeAgg(ctx, byte(cl.rng.Intn(256)))
	}
	return fmt.Errorf("unknown op %d", op)
}

func (cl *client) put(ctx context.Context, row int64) error {
	version := cl.written[row] + 1
	key, val := rowKey(row), cl.d.vals.value(row, version)
	if err := cl.d.cc.Put(ctx, mainTable, group, key, val); err != nil {
		return err
	}
	cl.written[row] = version
	cl.userBytes += int64(len(key) + len(val))
	return nil
}

func (cl *client) read(ctx context.Context, row int64) error {
	r, err := cl.d.cc.Get(ctx, mainTable, group, rowKey(row))
	if errors.Is(err, logbase.ErrNotFound) {
		cl.chk.fail("read: preloaded row %d not found", row)
		return nil
	}
	if err != nil {
		return err
	}
	if _, err := cl.d.vals.check(row, r.Value); err != nil {
		cl.chk.fail("read: %v", err)
	}
	return nil
}

// transfer moves a small amount between two Zipfian-chosen accounts in
// one transaction, so the balance sum never changes.
func (cl *client) transfer(ctx context.Context) error {
	a := cl.acctGen.Next(cl.rng)
	b := cl.acctGen.Next(cl.rng)
	for b == a {
		b = cl.rng.Int63n(cl.d.spec.accounts)
	}
	amount := int64(1 + cl.rng.Intn(maxTransfer))
	ka, kb := accountKey(a), accountKey(b)
	err := cl.d.cc.RunTxn(ctx, func(tx logbase.Tx) error {
		va, err := tx.Get(ctx, accountTable, group, ka)
		if err != nil {
			return err
		}
		vb, err := tx.Get(ctx, accountTable, group, kb)
		if err != nil {
			return err
		}
		ba, okA := leadingNum(va)
		bb, okB := leadingNum(vb)
		if !okA || !okB {
			cl.chk.fail("transfer: unreadable balances %q %q", va, vb)
			return errCheck
		}
		if err := tx.Put(accountTable, group, ka, strconv.AppendInt(nil, int64(ba)-amount, 10)); err != nil {
			return err
		}
		return tx.Put(accountTable, group, kb, strconv.AppendInt(nil, int64(bb)+amount, 10))
	})
	if errors.Is(err, errCheck) {
		return nil
	}
	return err
}

// scan reads up to scanLimit rows from row's key on and checks they are
// exactly the next rows in key order.
func (cl *client) scan(ctx context.Context, row int64) error {
	start := rowKey(row)
	pos := sort.Search(len(cl.sortedKeys), func(i int) bool { return bytes.Compare(cl.sortedKeys[i], start) >= 0 })
	want := min(scanLimit, len(cl.sortedKeys)-pos)
	it := cl.d.cc.Scan(ctx, mainTable, group, start, nil, logbase.WithLimit(scanLimit))
	n := 0
	for it.Next() {
		if n < want && !bytes.Equal(it.Row().Key, cl.sortedKeys[pos+n]) {
			cl.chk.fail("scan from row %d: row %d has key %x, want %x", row, n, it.Row().Key, cl.sortedKeys[pos+n])
		}
		n++
	}
	if err := it.Close(); err != nil {
		return err
	}
	if n != want {
		cl.chk.fail("scan from row %d: %d rows, want %d (limit %d)", row, n, want, scanLimit)
	}
	return nil
}

// aggQuery is COUNT and SUM of the values' leading numbers over keys
// whose first byte is b: 1/256 of the keyspace.
func aggQuery(b byte) logbase.Query {
	f := logbase.QueryFilter{Start: []byte{b}}
	if b < 255 {
		f.End = []byte{b + 1}
	}
	return logbase.Query{Filter: f, Aggs: []logbase.Agg{
		{Kind: logbase.Count},
		{Kind: logbase.Sum, Extract: func(r logbase.Row) (float64, bool) { return leadingNum(r.Value) }},
	}}
}

func (cl *client) rangeAgg(ctx context.Context, b byte) error {
	res, err := cl.d.cc.Query(ctx, mainTable, group, aggQuery(b))
	if err != nil {
		return err
	}
	cl.d.checkRangeAgg(cl.chk, b, res)
	return nil
}

// checkRangeAgg compares a range aggregate over [b, b+1) with the
// preloaded rows: puts rewrite existing rows only, so COUNT and SUM are
// fixed.
func (d *deployment) checkRangeAgg(chk *checker, b byte, res logbase.QueryResult) {
	count, sum := int64(res.Value(0, logbase.Count)), int64(res.Value(1, logbase.Sum))
	if count != d.rangeCount[b] || sum != d.rangeSum[b] {
		chk.fail("range aggregate over byte %#02x: COUNT %d SUM %d, want %d %d", b, count, sum, d.rangeCount[b], d.rangeSum[b])
	}
}

// traceWindow is the length of the alternating untraced and traced
// windows of a traced run's timed phase.
const traceWindow = 250 * time.Millisecond

// phaseResult is what the clients did in one timed phase, in total and
// per round.
type phaseResult struct {
	elapsed   time.Duration
	lat       [numOps]latencies // every round pooled
	rounds    []roundResult
	attempted int
	failed    int
	userBytes int64
	// opsByMode counts completed ops in untraced [0] and traced [1]
	// windows; modeTime is the time each mode was on.
	opsByMode [2]int
	modeTime  [2]time.Duration
	spans     []span
}

// runPhase drives every client closed-loop from start for rounds rounds
// of roundLen each; an op belongs to the round it started in. With
// tracing, ops that start in odd windows are wrapped in one span each.
func runPhase(ctx context.Context, clients []*client, start time.Time, rounds int, roundLen time.Duration, tracing bool) *phaseResult {
	deadline := start.Add(time.Duration(rounds) * roundLen)
	modeOps := make([][2]int, len(clients))
	var wg sync.WaitGroup
	for i, cl := range clients {
		cl.lat = make([][numOps]opLatencies, rounds)
		wg.Add(1)
		go func(i int, cl *client) {
			defer wg.Done()
			var seq uint64
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				op := cl.pick()
				mode := 0
				if tracing && (t0.Sub(start)/traceWindow)%2 == 1 {
					mode = 1
				}
				err := cl.do(ctx, op)
				t1 := time.Now()
				r := min(int(t0.Sub(start)/roundLen), rounds-1)
				cl.lat[r][op].add(float64(t1.Sub(t0).Nanoseconds())/1e3, err)
				if err == nil {
					modeOps[i][mode]++
				}
				if mode == 1 {
					seq++
					id := uint64(cl.id+1)<<48 | seq
					cl.spans = append(cl.spans, span{Trace: id, ID: id, Name: rootSpanNames[op],
						Start: t0.Sub(start).Nanoseconds(), End: t1.Sub(start).Nanoseconds()})
				}
			}
		}(i, cl)
	}
	wg.Wait()
	res := &phaseResult{elapsed: time.Since(start), rounds: make([]roundResult, rounds)}
	for op := opKind(0); op < numOps; op++ {
		var all []*opLatencies
		for r := range res.rounds {
			var parts []*opLatencies
			for _, cl := range clients {
				parts = append(parts, &cl.lat[r][op])
			}
			l := pool(parts...)
			res.rounds[r].lat[op] = l
			res.rounds[r].completed += l.seen - l.failed
			res.attempted += l.seen
			res.failed += l.failed
			all = append(all, parts...)
		}
		res.lat[op] = pool(all...)
	}
	for i, cl := range clients {
		cl.lat = nil
		res.userBytes += cl.userBytes
		cl.userBytes = 0
		res.spans = append(res.spans, cl.spans...)
		cl.spans = nil
		res.opsByMode[0] += modeOps[i][0]
		res.opsByMode[1] += modeOps[i][1]
	}
	res.modeTime = windowTimes(res.elapsed, tracing)
	return res
}

// windowTimes splits a phase of length total into the time spent in
// untraced and traced windows.
func windowTimes(total time.Duration, tracing bool) [2]time.Duration {
	if !tracing {
		return [2]time.Duration{total, 0}
	}
	var t [2]time.Duration
	for at := time.Duration(0); at < total; at += traceWindow {
		t[(at/traceWindow)%2] += min(traceWindow, total-at)
	}
	return t
}

func (r *phaseResult) completed() int { return r.attempted - r.failed }

// roundResult is one round of a timed phase: the ops that started in it.
type roundResult struct {
	lat       [numOps]latencies
	completed int
}
