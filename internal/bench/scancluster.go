package bench

// The clustered-scan and auto-compaction experiments for the CI perf
// gate (cmd/benchgate) and the registry.
//
// scan-clustered vs scan-index: the same rows on the same fully
// compacted log (SortedFraction == 1.0 after incremental compaction
// has produced several overlapping sorted segments — the steady state
// the background compactor maintains), full-table-scanned twice: once
// through the clustered fast path (sequential segment streams, k-way
// merged), once forced onto the index-driven path (per-key index
// resolution + batched log fetches). On the modelled disk the index
// path pays a head seek whenever consecutive keys resolve to different
// overlapping segments; the clustered path pays transfer plus one seek
// per read-ahead refill. The gate asserts the clustered path costs at
// most HALF the index path's modelled disk time per row.
//
// autocompact: a sustained write+scan mix with NO manual Compact —
// only the incremental background compactor (driven by deterministic
// ticks, exactly what the Interval loop runs). The experiment fails if
// the compactor cannot hold SortedFraction >= 0.5, i.e. if the
// clustered read path would disengage under sustained load.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/partition"
	"repro/internal/simdisk"
)

const (
	clusterScanRounds = 4
	autoCompactRounds = 8
)

// clusteredFixture is one embedded tablet server over a modelled DFS,
// loaded with rounds x perRound rows in an interleaved key pattern and
// incrementally compacted after each round, so the log ends fully
// sorted as `rounds` overlapping sorted segments.
func clusteredFixture(id string, perRound, valueSize int, noClustered bool) (*core.Server, *simdisk.Clock, string, int, error) {
	dir, err := tempDir(id)
	if err != nil {
		return nil, nil, "", 0, err
	}
	clock := &simdisk.Clock{}
	fs, err := dfs.New(dir, dfs.Config{
		NumDataNodes: 2, BlockSize: 4 << 20,
		DiskModel: benchDiskModel(), Clock: clock,
	})
	if err != nil {
		return nil, nil, dir, 0, err
	}
	srv, err := core.NewServer(fs, "cs", core.Config{SegmentSize: 16 << 20, NoClusteredScan: noClustered})
	if err != nil {
		return nil, nil, dir, 0, err
	}
	srv.AddTablet(benchTablet(), []string{benchGroup})
	val := value(valueSize, 9)
	ts := int64(0)
	for r := 0; r < clusterScanRounds; r++ {
		for i := 0; i < perRound; i++ {
			// Interleaved: round r writes keys r, R+r, 2R+r, ... so each
			// round's sorted segment spans the whole keyspace — the
			// overlapping layout incremental compaction produces under
			// uniformly distributed writes.
			k := i*clusterScanRounds + r
			ts++
			if err := srv.Write(benchTabletID, benchGroup, key(k), ts, val); err != nil {
				return nil, nil, dir, 0, err
			}
		}
		srv.Log().Rotate()
		var nums []uint32
		for _, si := range srv.Log().Segments() {
			if !si.Sorted {
				nums = append(nums, si.Num)
			}
		}
		if _, err := srv.CompactSegments(nums); err != nil {
			return nil, nil, dir, 0, err
		}
	}
	if f := srv.SortedFraction(); f < 0.999 {
		return nil, nil, dir, 0, fmt.Errorf("fixture not fully compacted: sorted fraction %.3f", f)
	}
	return srv, clock, dir, clusterScanRounds * perRound, nil
}

// scanClusteredPair measures the gated pair and returns
// (clustered, index) modelled disk microseconds per row.
func scanClusteredPair(s Scale) (cl, idx KeyOp, err error) {
	measure := func(name, id string, noClustered bool, scan func(*core.Server, int) (int, error)) (KeyOp, error) {
		srv, clock, dir, n, err := clusteredFixture(id, s.Rows, s.ValueSize, noClustered)
		if dir != "" {
			defer os.RemoveAll(dir)
		}
		if err != nil {
			return KeyOp{}, err
		}
		defer srv.Close()
		before := srv.Stats().LogReads.Load()
		clock.Reset()
		am := startAllocMeter()
		start := time.Now()
		rows, err := scan(srv, n)
		if err != nil {
			return KeyOp{}, fmt.Errorf("%s: %w", name, err)
		}
		if rows != n {
			return KeyOp{}, fmt.Errorf("%s saw %d rows, want %d", name, rows, n)
		}
		wall := time.Since(start)
		allocs, bytes := am.perOp(int64(rows))
		disk := clock.Elapsed()
		return KeyOp{
			Name:        name,
			Ops:         int64(rows),
			DiskUSPerOp: float64(disk) / float64(time.Microsecond) / float64(rows),
			WallUSPerOp: float64(wall) / float64(time.Microsecond) / float64(rows),
			RowsShipped: srv.Stats().LogReads.Load() - before,
			AllocsPerOp: allocs,
			BytesPerOp:  bytes,
		}, nil
	}

	ctx := context.Background()
	fullScan := func(srv *core.Server, _ int) (int, error) {
		rows := 0
		err := srv.FullScan(ctx, benchTabletID, benchGroup, func(core.Row) bool { rows++; return true })
		return rows, err
	}
	indexScan := func(srv *core.Server, n int) (int, error) {
		rows := 0
		err := srv.ParallelScan(ctx, benchTabletID, benchGroup,
			core.ScanOptions{TS: int64(4 * n), Workers: 1},
			func(rs []core.Row) error { rows += len(rs); return nil })
		return rows, err
	}

	if cl, err = measure("scan-clustered", "scancl", false, fullScan); err != nil {
		return
	}
	idx, err = measure("scan-index", "scanidx", true, indexScan)
	return
}

// ScanClusteredKeyOps runs the gated pair and enforces the acceptance
// floor: the clustered path must cost at most half the index-driven
// path's modelled disk time per row on the same fully compacted log.
// The floor is only enforced when the fixture carries enough data for
// per-row costs to dominate the handful of fixed segment-open seeks —
// tiny smoke scales still measure, they just don't gate the ratio.
func ScanClusteredKeyOps(s Scale) ([]KeyOp, error) {
	cl, idx, err := scanClusteredPair(s)
	if err != nil {
		return nil, err
	}
	if dataBytes := int64(cl.Ops) * int64(s.ValueSize); dataBytes >= 2<<20 && cl.DiskUSPerOp*2 > idx.DiskUSPerOp {
		return nil, fmt.Errorf("clustered scan not >=2x cheaper: clustered %.2f vs index %.2f disk us/op",
			cl.DiskUSPerOp, idx.DiskUSPerOp)
	}
	return []KeyOp{cl, idx}, nil
}

// clusterLimitScans is how many limited scans scan-clustered-limit
// issues; clusterScanLimit is each scan's row limit.
const (
	clusterLimitScans = 100
	clusterScanLimit  = 100
)

// ScanClusteredLimitKeyOp measures scan-clustered-limit: Limit-100
// clustered scans from random start keys on the same fully compacted
// table the scan-clustered pair uses, one op per scan. A limited scan
// must pay for the rows it returns — a short first read per segment
// stream and a merge that stops at the limit — not for a full
// read-ahead chunk per stream. Every scan is checked to return exactly
// the next min(limit, rows left) keys.
func ScanClusteredLimitKeyOp(s Scale) (KeyOp, error) {
	const name = "scan-clustered-limit"
	srv, clock, dir, n, err := clusteredFixture("scanlim", s.Rows, s.ValueSize, false)
	if dir != "" {
		defer os.RemoveAll(dir)
	}
	if err != nil {
		return KeyOp{}, err
	}
	defer srv.Close()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(19))
	before := srv.Stats().LogReads.Load()
	clock.Reset()
	am := startAllocMeter()
	start := time.Now()
	for i := 0; i < clusterLimitScans; i++ {
		first := rng.Intn(n)
		next := first
		err := srv.ParallelScan(ctx, benchTabletID, benchGroup,
			core.ScanOptions{Start: key(first), TS: int64(n), Limit: clusterScanLimit},
			func(rs []core.Row) error {
				for _, r := range rs {
					if !bytes.Equal(r.Key, key(next)) {
						return fmt.Errorf("%s: scan from %d returned %q, want %q", name, first, r.Key, key(next))
					}
					next++
				}
				return nil
			})
		if err != nil {
			return KeyOp{}, err
		}
		if want := min(first+clusterScanLimit, n); next != want {
			return KeyOp{}, fmt.Errorf("%s: scan from %d returned %d rows, want %d", name, first, next-first, want-first)
		}
	}
	wall := time.Since(start)
	allocs, allocBytes := am.perOp(clusterLimitScans)
	return KeyOp{
		Name:        name,
		Ops:         clusterLimitScans,
		DiskUSPerOp: float64(clock.Elapsed()) / float64(time.Microsecond) / clusterLimitScans,
		WallUSPerOp: float64(wall) / float64(time.Microsecond) / clusterLimitScans,
		RowsShipped: srv.Stats().LogReads.Load() - before,
		AllocsPerOp: allocs,
		BytesPerOp:  allocBytes,
	}, nil
}

// AutoCompactKeyOps runs the sustained write+scan churn with only the
// background compactor's tick keeping the log clustered, and fails if
// SortedFraction drops below 0.5 — the "stays fast without a manual
// vacuum" contract.
func AutoCompactKeyOps(s Scale) ([]KeyOp, float64, error) {
	dir, err := tempDir("autocompact")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)
	clock := &simdisk.Clock{}
	fs, err := dfs.New(dir, dfs.Config{
		NumDataNodes: 2, BlockSize: 4 << 20,
		DiskModel: benchDiskModel(), Clock: clock,
	})
	if err != nil {
		return nil, 0, err
	}
	srv, err := core.NewServer(fs, "ac", core.Config{
		SegmentSize:         1 << 20,
		CompactKeepVersions: 2,
		AutoCompact:         core.AutoCompactConfig{GarbageRatio: 0.30, MaxSegmentsPerRun: 4},
	})
	if err != nil {
		return nil, 0, err
	}
	defer srv.Close()
	srv.AddTablet(benchTablet(), []string{benchGroup})

	ctx := context.Background()
	n := s.Rows
	val := value(s.ValueSize, 3)
	ts := int64(0)
	put := func(i int) error {
		ts++
		return srv.Write(benchTabletID, benchGroup, key(i), ts, val)
	}
	var ops int64
	clock.Reset()
	start := time.Now()
	// Initial load.
	for i := 0; i < n; i++ {
		if err := put(i); err != nil {
			return nil, 0, err
		}
		ops++
	}
	live := n
	for round := 0; round < autoCompactRounds; round++ {
		// Sustained churn: overwrite a rotating quarter of the keyspace
		// (creating beyond-retention garbage), delete and re-create a
		// sliver, and scan everything — all while ONLY the background
		// compactor's tick runs.
		lo := (round * n / 4) % n
		for i := 0; i < n/4; i++ {
			if err := put((lo + i) % n); err != nil {
				return nil, 0, err
			}
			ops++
		}
		for i := 0; i < n/32; i++ {
			k := (lo + i) % n
			ts++
			if err := srv.Delete(benchTabletID, benchGroup, key(k), ts); err != nil {
				return nil, 0, err
			}
			ops++
			if err := put(k); err != nil {
				return nil, 0, err
			}
			ops++
		}
		rows := 0
		if err := srv.FullScan(ctx, benchTabletID, benchGroup, func(core.Row) bool { rows++; return true }); err != nil {
			return nil, 0, err
		}
		if rows != live {
			return nil, 0, fmt.Errorf("autocompact round %d: scan saw %d rows, want %d", round, rows, live)
		}
		ops += int64(rows)
		if _, _, err := srv.AutoCompactTick(); err != nil {
			return nil, 0, err
		}
	}
	wall := time.Since(start)
	disk := clock.Elapsed()
	frac := srv.SortedFraction()
	if frac < 0.5 {
		return nil, frac, fmt.Errorf("autocompact: sorted fraction %.3f < 0.5 — background compaction not keeping up", frac)
	}
	return []KeyOp{{
		Name:        "autocompact",
		Ops:         ops,
		DiskUSPerOp: float64(disk) / float64(time.Microsecond) / float64(ops),
		WallUSPerOp: float64(wall) / float64(time.Microsecond) / float64(ops),
	}}, frac, nil
}

// ScanClustered is the registry experiment form of the gated pair.
func ScanClustered(s Scale) (Table, error) {
	t := Table{
		ID:     "scan-clustered",
		Title:  "Clustered scan fast path vs index-driven path (fully compacted log)",
		Header: []string{"rows", "clustered disk µs/row", "index disk µs/row", "speedup"},
		Shape:  "clustered full scan >= 2x cheaper modelled disk than index-driven path",
	}
	cl, idx, err := scanClusteredPair(Scale{Rows: s.Rows / 2, ValueSize: s.ValueSize})
	if err != nil {
		return t, err
	}
	speedup := 0.0
	if cl.DiskUSPerOp > 0 {
		speedup = idx.DiskUSPerOp / cl.DiskUSPerOp
	}
	t.Rows = append(t.Rows, []string{
		fmt.Sprint(cl.Ops),
		fmt.Sprintf("%.2f", cl.DiskUSPerOp),
		fmt.Sprintf("%.2f", idx.DiskUSPerOp),
		fmt.Sprintf("%.1fx", speedup),
	})
	t.Hold = speedup >= 2
	return t, nil
}

// AutoCompactChurn is the registry experiment form of the autocompact
// gate.
func AutoCompactChurn(s Scale) (Table, error) {
	t := Table{
		ID:     "autocompact",
		Title:  "Background incremental compaction under write+scan churn",
		Header: []string{"ops", "disk µs/op", "final sorted fraction"},
		Shape:  "SortedFraction stays >= 0.5 with no manual Compact",
	}
	ops, frac, err := AutoCompactKeyOps(Scale{Rows: s.Rows / 4, ValueSize: s.ValueSize})
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, []string{
		fmt.Sprint(ops[0].Ops),
		fmt.Sprintf("%.2f", ops[0].DiskUSPerOp),
		fmt.Sprintf("%.3f", frac),
	})
	t.Hold = frac >= 0.5
	return t, nil
}

// keep partition import local: benchTablet uses it via bench.go.
var _ partition.Tablet
