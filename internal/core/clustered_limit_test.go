package core

// Tests for limited and bounded clustered scans: the merge caps at the
// limit, segment streams read footer-sized windows, and overlay rows
// are served from the read buffer when it holds exactly the visible
// version — all while agreeing row for row with the index path.

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dfs"
	"repro/internal/readopt"
)

const (
	limitRounds  = 3    // overlapping sorted segments
	limitPerRnd  = 4000 // keys per round
	limitValSize = 200
)

// limitFixture builds limitRounds interleaved rounds, each compacted
// into its own sorted segment spanning the whole keyspace, then an
// unsorted tail of overwrites (two versions each, so an older snapshot
// sees a version the read buffer no longer holds), fresh keys, and
// deletes of both sorted-resident and tail keys. It returns the server,
// its DFS, and a snapshot taken between the tail's two overwrite
// passes.
func limitFixture(t *testing.T) (*Server, *dfs.DFS, int64, int64) {
	t.Helper()
	s, fs := newTestServer(t, Config{SegmentSize: 16 << 20, ReadCacheBytes: 8 << 20})
	val := func(tag string, i int) []byte {
		v := bytes.Repeat([]byte{'x'}, limitValSize)
		copy(v, fmt.Sprintf("%s-%d", tag, i))
		return v
	}
	ts := int64(0)
	put := func(k []byte, v []byte) {
		t.Helper()
		ts++
		if err := s.Write(testTablet, testGroup, k, ts, v); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	for r := 0; r < limitRounds; r++ {
		for i := 0; i < limitPerRnd; i++ {
			put(k6(i*limitRounds+r), val(fmt.Sprintf("r%d", r), i))
		}
		sealAndCompactUnsorted(t, s)
	}
	n := limitRounds * limitPerRnd
	for i := 0; i < n; i += 37 {
		put(k6(i), val("tail1", i))
	}
	mid := ts
	for i := 0; i < n; i += 74 {
		put(k6(i), val("tail2", i))
	}
	for i := n; i < n+50; i++ {
		put(k6(i), val("fresh", i))
	}
	for i := 5; i < n; i += 53 {
		ts++
		if err := s.Delete(testTablet, testGroup, k6(i), ts); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}
	ts++
	if err := s.Delete(testTablet, testGroup, k6(n+10), ts); err != nil { // a tail key
		t.Fatalf("Delete: %v", err)
	}
	return s, fs, mid, ts
}

func scanWith(t *testing.T, s *Server, opt ScanOptions) []Row {
	t.Helper()
	var out []Row
	err := s.ParallelScan(bg, testTablet, testGroup, opt, func(rows []Row) error {
		for _, r := range rows {
			out = append(out, Row{Key: append([]byte(nil), r.Key...), TS: r.TS, Value: append([]byte(nil), r.Value...)})
		}
		return nil
	})
	if err != nil {
		t.Fatalf("scan %+v: %v", opt, err)
	}
	return out
}

func diskBytesRead(fs *dfs.DFS) int64 {
	var n int64
	for i := 0; i < fs.NumDataNodes(); i++ {
		n += fs.DataNode(i).Disk().Stats().BytesRead
	}
	return n
}

// TestLimitedClusteredScanMatchesIndexPath compares limited and
// bounded clustered scans with the index path (NoClusteredScan) on the
// same server at the same snapshots: tombstones, an older snapshot
// whose overlay versions are not the buffered ones, a stale buffered
// entry planted under a mismatched timestamp, and a residual value
// predicate (under which the limit must not cap the merge).
func TestLimitedClusteredScanMatchesIndexPath(t *testing.T) {
	s, _, mid, latest := limitFixture(t)
	if got := len(s.Log().Segments()); got < limitRounds+1 {
		t.Fatalf("fixture has %d segments, want %d sorted plus a tail", got, limitRounds)
	}
	// A stale buffered entry: right key, wrong timestamp, bogus value.
	// The visible version's timestamp differs, so it must come from the
	// log.
	stale := k6(37 * 3)
	s.readCache.Put(cacheKey("users", testGroup, stale), encodeCached(1, []byte("bogus")))

	n := limitRounds * limitPerRnd
	starts := [][]byte{nil, k6(1), k6(37 * 3), k6(n / 2), k6(n - 20), k6(n + 5)}
	var opts []ScanOptions
	for _, ts := range []int64{mid, latest} {
		for _, start := range starts {
			for _, limit := range []int{1, 7, 100, 500} {
				opts = append(opts,
					ScanOptions{Start: start, TS: ts, Limit: limit},
					ScanOptions{Start: start, TS: ts, Limit: limit, ValuePred: readopt.Contains([]byte("tail"))},
				)
			}
			end := k6(n / 3)
			if start == nil || bytes.Compare(start, end) < 0 {
				opts = append(opts, ScanOptions{Start: start, End: end, TS: ts})
			}
		}
	}
	for _, opt := range opts {
		s.cfg.NoClusteredScan = false
		got := scanWith(t, s, opt)
		s.cfg.NoClusteredScan = true
		want := scanWith(t, s, opt)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("start %q end %q ts %d limit %d pred %v: clustered %d rows, index %d rows (first diff at %d)",
				opt.Start, opt.End, opt.TS, opt.Limit, opt.ValuePred != nil, len(got), len(want), firstDiff(got, want))
		}
		// Starts well inside the keyspace have more than 500 rows after
		// them, so an unfiltered limited scan must fill its limit.
		if opt.Limit > 0 && opt.ValuePred == nil && bytes.Compare(opt.Start, k6(n-20)) < 0 && len(got) != opt.Limit {
			t.Fatalf("start %q limit %d: %d rows", opt.Start, opt.Limit, len(got))
		}
		for _, r := range got {
			if string(r.Value) == "bogus" {
				t.Fatalf("stale buffered value served for %q", r.Key)
			}
		}
	}
	s.cfg.NoClusteredScan = false
	if st := s.Stats(); st.CacheHits.Load() == 0 {
		t.Fatal("no overlay row was served from the read buffer")
	}
}

func firstDiff(a, b []Row) int {
	for i := range a {
		if i >= len(b) || !reflect.DeepEqual(a[i], b[i]) {
			return i
		}
	}
	return len(a)
}

// TestLimitedClusteredScanReadsLittle bounds what limited and bounded
// clustered scans read from disk. Before limits sized the windows each
// of the three segment streams read a full 2 MB chunk (here the whole
// ~0.9 MB segment, ~2.8 MB per scan); now a Limit-100 scan reads one
// sparse stride plus 100 records per stream, and a bounded range stops
// at the first sparse sample past its end.
func TestLimitedClusteredScanReadsLittle(t *testing.T) {
	s, fs, _, latest := limitFixture(t)
	var segBytes int64
	for _, si := range s.Log().Segments() {
		if si.Sorted {
			segBytes += si.Size
		}
	}
	n := limitRounds * limitPerRnd
	const scans = 10
	before := diskBytesRead(fs)
	for i := 0; i < scans; i++ {
		rows := scanWith(t, s, ScanOptions{Start: k6(i * n / scans), TS: latest, Limit: 100})
		if len(rows) != 100 {
			t.Fatalf("scan %d returned %d rows", i, len(rows))
		}
	}
	perScan := (diskBytesRead(fs) - before) / scans
	// Three streams of one 64 KB stride plus 100 ~250-byte records,
	// plus the overlay rows the read buffer does not hold.
	const limitBound = 400 << 10
	if perScan > limitBound {
		t.Fatalf("Limit-100 scan read %d bytes, want <= %d (sorted segments total %d)", perScan, limitBound, segBytes)
	}
	t.Logf("Limit-100 scan read %d bytes of %d sorted-segment bytes", perScan, segBytes)

	// A bounded range of ~100 keys: each stream reads from the sample
	// at or before the start to the first sample past the end.
	before = diskBytesRead(fs)
	rows := scanWith(t, s, ScanOptions{Start: k6(n / 2), End: k6(n/2 + 100), TS: latest})
	if len(rows) < 90 {
		t.Fatalf("bounded scan returned %d rows", len(rows))
	}
	const rangeBound = 3 * 3 * (64 << 10)
	if read := diskBytesRead(fs) - before; read > rangeBound {
		t.Fatalf("bounded scan read %d bytes, want <= %d", read, rangeBound)
	}
}
