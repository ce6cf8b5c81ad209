package core

import (
	"bytes"
	"sort"

	"repro/internal/index"
	"repro/internal/wal"
)

// CompactionStats summarises one compaction run.
type CompactionStats struct {
	RecordsIn   int
	RecordsKept int
	Dropped     int // obsolete versions + invalidated + uncommitted
	SegmentsIn  int
	SegmentsOut int
	// BytesReclaimed is the run's net change in log size: input bytes
	// minus output bytes. It is negative when the output's framing
	// (header, footer, sparse index) outweighs the garbage dropped.
	BytesReclaimed int64
}

// Compact runs the log compaction / vacuuming process (paper §3.6.5):
// it scans the current segments, discards out-of-date versions,
// invalidated (deleted) records and uncommitted transactional writes,
// sorts the survivors by (table, column group, record key, timestamp),
// writes them into fresh sorted segments, rebuilds the in-memory
// indexes over the new locations, atomically installs them, and removes
// the superseded segments. Reads and writes proceed during all but the
// brief install step; writes arriving mid-compaction land in new tail
// segments that are reconciled at install time via the LSN redo rule.
func (s *Server) Compact() (CompactionStats, error) {
	var st CompactionStats
	// One compaction at a time: the whole-log rewrite and the
	// incremental background runs (CompactSegments) must not interleave.
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	// Freeze the input: rotating the log closes the active segment, so
	// every segment in the snapshot is immutable and appends from here
	// on go to fresh segments outside the set. (Without the rotation, a
	// write racing into the still-open tail segment would be deleted
	// along with the compaction input.)
	s.log.Rotate()
	// The whole-log rewrite vacuums tombstones and commit records and
	// strips TxnIDs — a feed resuming anywhere inside the input could
	// miss deletes or mis-attribute transactional cursors. The prune
	// horizon therefore jumps past every LSN assigned so far; only
	// from-zero re-bootstraps replay across a whole-log compaction.
	if next := s.log.NextLSN(); next > 0 {
		s.raisePruneHorizon(next - 1)
	}
	inputInfos := s.log.Segments()
	inputSet := make(map[uint32]bool, len(inputInfos))
	var inputNums []uint32
	var inputBytes int64
	maxInput := uint32(0)
	for _, si := range inputInfos {
		inputSet[si.Num] = true
		inputNums = append(inputNums, si.Num)
		inputBytes += si.Size
		if si.Num > maxInput {
			maxInput = si.Num
		}
	}
	st.SegmentsIn = len(inputInfos)
	if len(inputInfos) == 0 {
		return st, nil
	}

	// Pass 1: find committed transactions within the input.
	committed := map[uint64]bool{}
	sc := s.log.NewScanner(wal.Position{})
	for sc.Next() {
		if !inputSet[sc.Ptr().Seg] {
			continue
		}
		if sc.Record().Kind == wal.KindCommit {
			committed[sc.Record().TxnID] = true
		}
	}
	if err := sc.Err(); err != nil {
		return st, err
	}

	// Pass 2: collect live records (with their current locations, so
	// secondary-index pointers can be redirected at install).
	type recAt struct {
		rec wal.Record
		ptr wal.Ptr
	}
	type keyState struct {
		table    string
		versions []recAt
		deleteTS int64 // max committed delete timestamp
	}
	states := map[string]*keyState{}
	// Registered 2PC preparations survive the vacuum verbatim.
	regTxns := map[uint64]bool{}
	s.prepMu.Lock()
	for id := range s.prepared {
		regTxns[id] = true
	}
	s.prepMu.Unlock()
	var preserved []recAt
	keyOf := func(r wal.Record) string {
		return r.Table + "\x00" + r.Group + "\x00" + string(r.Key)
	}
	sc = s.log.NewScanner(wal.Position{})
	for sc.Next() {
		p := sc.Ptr()
		if !inputSet[p.Seg] {
			continue
		}
		rec := sc.Record()
		switch rec.Kind {
		case wal.KindWrite, wal.KindDelete:
		default:
			continue
		}
		st.RecordsIn++
		if rec.TxnID != 0 && !committed[rec.TxnID] {
			// Uncommitted: vacuumed (paper §3.7.2) — except registered 2PC
			// preparations, whose commit may land mid-compaction or later;
			// their records are carried verbatim and re-installed or
			// repointed at the install step.
			if regTxns[rec.TxnID] {
				preserved = append(preserved, recAt{rec: rec, ptr: p})
			}
			continue
		}
		// Only records for tablets served here are retained; stray
		// records (none in practice) are dropped with the garbage.
		if _, err := s.tablet(rec.Tablet); err != nil {
			continue
		}
		k := keyOf(rec)
		ks := states[k]
		if ks == nil {
			ks = &keyState{table: rec.Table}
			states[k] = ks
		}
		if rec.Kind == wal.KindDelete {
			if rec.TS > ks.deleteTS {
				ks.deleteTS = rec.TS
			}
			continue
		}
		ks.versions = append(ks.versions, recAt{rec: rec, ptr: p})
	}
	if err := sc.Err(); err != nil {
		return st, err
	}

	// Select survivors: committed versions newer than the key's last
	// delete, bounded by the table's retention policy (or the global
	// CompactKeepVersions default).
	bounds := s.retentionBounds()
	var keep []recAt
	for _, ks := range states {
		live := ks.versions[:0]
		for _, v := range ks.versions {
			if v.rec.TS > ks.deleteTS {
				live = append(live, v)
			}
		}
		sort.Slice(live, func(i, j int) bool { return live[i].rec.TS < live[j].rec.TS })
		// Keep only the latest version per (key, ts): same-ts rewrites
		// are superseded by the highest LSN.
		dedup := live[:0]
		for _, v := range live {
			if n := len(dedup); n > 0 && dedup[n-1].rec.TS == v.rec.TS {
				if v.rec.LSN > dedup[n-1].rec.LSN {
					dedup[n-1] = v
				}
				continue
			}
			dedup = append(dedup, v)
		}
		b := bounds(ks.table)
		if b.keep > 0 && len(dedup) > b.keep {
			dedup = dedup[len(dedup)-b.keep:]
		}
		// Age bound: versions older than the cutoff go, except a key's
		// newest (the current state must survive any retention setting).
		for b.cutoff > 0 && len(dedup) > 1 && dedup[0].rec.TS < b.cutoff {
			dedup = dedup[1:]
		}
		keep = append(keep, dedup...)
	}
	st.RecordsKept = len(keep)
	st.Dropped = st.RecordsIn - st.RecordsKept

	// Sort survivors by (table, column group, record key, timestamp) —
	// the paper's clustering order.
	sort.Slice(keep, func(i, j int) bool {
		a, b := keep[i].rec, keep[j].rec
		if a.Table != b.Table {
			return a.Table < b.Table
		}
		if a.Group != b.Group {
			return a.Group < b.Group
		}
		if c := bytes.Compare(a.Key, b.Key); c != 0 {
			return c < 0
		}
		return a.TS < b.TS
	})

	// Write sorted segments; committed transactional writes are
	// rewritten as plain writes (their commit records are vacuumed, so
	// the TxnID must not survive or recovery would discard them).
	sw := s.log.NewSegmentWriter(true)
	type rebuiltEntry struct {
		tablet, group string
		e             index.Entry
	}
	rebuilt := make([]rebuiltEntry, 0, len(keep))
	remap := make(map[wal.Ptr]wal.Ptr, len(keep))
	for i := range keep {
		rec := keep[i].rec
		rec.TxnID = 0
		ptr, err := sw.Append(&rec)
		if err != nil {
			return st, err
		}
		remap[keep[i].ptr] = ptr
		rebuilt = append(rebuilt, rebuiltEntry{
			tablet: rec.Tablet, group: rec.Group,
			e: index.Entry{Key: rec.Key, TS: rec.TS, Ptr: ptr, LSN: rec.LSN},
		})
	}
	if err := sw.Close(); err != nil {
		return st, err
	}
	// Preserved 2PC preparations ride along with TxnID intact — into a
	// separate UNSORTED segment: they are not in clustering order, and a
	// sorted segment's footer invariant (every record in key order) is
	// what the clustered scan planner trusts. Once committed, their
	// index entries point into the unsorted segment and scans reach them
	// through the index overlay. Record their (tablet, group, entry)
	// shape so a commit that landed during this compaction can be
	// re-installed into the rebuilt trees, and a commit still to come
	// finds repointed locations in its Prepared.
	type prepEntry struct {
		tablet, group string
		key           []byte
		del           bool
		e             index.Entry
	}
	prepByTxn := map[uint64][]prepEntry{}
	var prepSegs []uint32
	if len(preserved) > 0 {
		swPrep := s.log.NewSegmentWriter(false)
		for i := range preserved {
			rec := preserved[i].rec
			ptr, err := swPrep.Append(&rec)
			if err != nil {
				return st, err
			}
			remap[preserved[i].ptr] = ptr
			prepByTxn[rec.TxnID] = append(prepByTxn[rec.TxnID], prepEntry{
				tablet: rec.Tablet, group: rec.Group, key: rec.Key, del: rec.Kind == wal.KindDelete,
				e: index.Entry{Key: rec.Key, TS: rec.TS, Ptr: ptr, LSN: rec.LSN},
			})
		}
		if err := swPrep.Close(); err != nil {
			return st, err
		}
		prepSegs = swPrep.Segments()
	}
	st.SegmentsOut = len(sw.Segments()) + len(prepSegs)

	// Build fresh trees over the sorted segments.
	type cgKey struct{ tablet, group string }
	entriesByCG := map[cgKey][]index.Entry{}
	for _, re := range rebuilt {
		k := cgKey{re.tablet, re.group}
		entriesByCG[k] = append(entriesByCG[k], re.e)
	}
	newTrees := map[cgKey]*index.Tree{}
	for k, entries := range entriesByCG {
		sort.Slice(entries, func(i, j int) bool {
			if c := bytes.Compare(entries[i].Key, entries[j].Key); c != 0 {
				return c < 0
			}
			return entries[i].TS < entries[j].TS
		})
		newTrees[k] = index.Bulk(entries)
	}

	// Crash point: the sorted output segments are durable alongside the
	// still-live inputs; the in-memory install has not begun. Recovery
	// over the doubled log must be idempotent (same key/ts entries
	// replace, deletes apply by LSN).
	if err := s.cfg.Faults.FireErr("crash.compact.pre-install"); err != nil {
		return st, err
	}

	// Install: block mutations, replay the tail (records appended since
	// the snapshot) into the new trees, swap, release. Tail segments are
	// exactly those newer than the frozen input, minus our own sorted
	// output.
	s.installMu.Lock()
	tailCommitted := map[uint64]bool{}
	tsc := s.log.NewScanner(wal.Position{Seg: maxInput + 1})
	var tail []struct {
		rec wal.Record
		ptr wal.Ptr
	}
	for tsc.Next() {
		p := tsc.Ptr()
		if inputSet[p.Seg] {
			continue
		}
		if containsU32(sw.Segments(), p.Seg) || containsU32(prepSegs, p.Seg) {
			// Our own output: the sorted rewrite, and the preserved
			// prepared records (those are reconciled via prepByTxn below,
			// with LSN-guarded deletes — the blind tail replay would let a
			// relocated old tombstone destroy newer tail writes).
			continue
		}
		rec := tsc.Record()
		if rec.Kind == wal.KindCommit {
			tailCommitted[rec.TxnID] = true
		}
		tail = append(tail, struct {
			rec wal.Record
			ptr wal.Ptr
		}{rec, p})
	}
	if err := tsc.Err(); err != nil {
		s.installMu.Unlock()
		return st, err
	}
	for _, t := range tail {
		rec := t.rec
		if rec.TxnID != 0 && !tailCommitted[rec.TxnID] && rec.Kind != wal.KindCommit {
			continue
		}
		k := cgKey{rec.Tablet, rec.Group}
		switch rec.Kind {
		case wal.KindWrite:
			tree := newTrees[k]
			if tree == nil {
				if _, err := s.tablet(rec.Tablet); err != nil {
					continue
				}
				tree = index.New()
				newTrees[k] = tree
			}
			tree.Put(index.Entry{Key: rec.Key, TS: rec.TS, Ptr: t.ptr, LSN: rec.LSN})
		case wal.KindDelete:
			if tree := newTrees[k]; tree != nil {
				tree.DeleteKey(rec.Key)
			}
		}
	}
	// Preparations whose commit landed in the tail are committed NOW:
	// CommitTxn installed entries into the trees this install is about
	// to replace, so re-install the (relocated) records here. Deletes
	// are LSN-guarded: a tail write newer than the transactional delete
	// must survive it regardless of application order.
	for txnID, entries := range prepByTxn {
		if !tailCommitted[txnID] {
			continue
		}
		for _, pe := range entries {
			k := cgKey{pe.tablet, pe.group}
			tree := newTrees[k]
			if tree == nil {
				if _, err := s.tablet(pe.tablet); err != nil {
					continue
				}
				tree = index.New()
				newTrees[k] = tree
			}
			if pe.del {
				tree.DeleteKeyBelow(pe.key, pe.e.LSN)
			} else {
				tree.Put(pe.e)
			}
		}
	}
	// Preparations still awaiting their commit learn the relocated
	// record positions.
	s.repointPrepared(remap)

	// Swap trees in. Column groups with no surviving data get an empty
	// tree (all versions deleted).
	s.mu.RLock()
	for _, t := range s.tablets {
		t.mu.RLock()
		for gname, g := range t.groups {
			if nt, ok := newTrees[cgKey{t.id, gname}]; ok {
				g.idx.Store(nt)
			} else {
				g.idx.Store(index.New())
			}
		}
		t.mu.RUnlock()
	}
	s.mu.RUnlock()
	s.installMu.Unlock()
	// Secondary indexes point into the rewritten segments too; redirect
	// them through the same old->new location map. This runs outside
	// the writer-exclusion window: the replayed entries keep their
	// original LSNs, so the LSN guard rejects them wherever a concurrent
	// write already installed something newer.
	s.repointSecondaries(remap)

	// Crash point: new trees are installed but the superseded input
	// segments still exist — a restart must not resurrect vacuumed
	// versions nor double-apply relocated records.
	if err := s.cfg.Faults.FireErr("crash.compact.pre-remove"); err != nil {
		return st, err
	}
	if err := s.retireCompaction(&st, inputNums, inputBytes, sw.Segments()); err != nil {
		return st, err
	}

	// A checkpoint taken before compaction references segments that no
	// longer exist; refresh it so recovery has a consistent start.
	if err := s.Checkpoint(); err != nil {
		return st, err
	}
	return st, nil
}

// retireCompaction ends a run: it removes the input segments, sets
// st.BytesReclaimed and folds the run into the cumulative counters, all
// under statsMu so StatsView sees the layout and counters change in one
// step. A run whose net is negative reclaimed nothing, so the
// cumulative byte counter adds only positive nets and, like the other
// two, never goes backwards.
func (s *Server) retireCompaction(st *CompactionStats, inputs []uint32, inputBytes int64, outputs []uint32) error {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	if err := s.log.RemoveSegments(inputs...); err != nil {
		return err
	}
	st.BytesReclaimed = inputBytes - s.segmentsBytes(outputs)
	s.stats.Compactions.Add(1)
	s.stats.CompactDropped.Add(int64(st.Dropped))
	s.stats.CompactReclaimed.Add(max(st.BytesReclaimed, 0))
	return nil
}

func (s *Server) segmentsBytes(nums []uint32) int64 {
	var n int64
	for _, si := range s.log.Segments() {
		if containsU32(nums, si.Num) {
			n += si.Size
		}
	}
	return n
}

func containsU32(xs []uint32, x uint32) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// SortedFraction reports the fraction of live log bytes in sorted
// segments — 1.0 right after compaction; benches use it to verify the
// pre/post-compaction contrast of Figure 10.
func (s *Server) SortedFraction() float64 {
	var sorted, total int64
	for _, si := range s.log.Segments() {
		total += si.Size
		if si.Sorted {
			sorted += si.Size
		}
	}
	if total == 0 {
		return 0
	}
	return float64(sorted) / float64(total)
}
