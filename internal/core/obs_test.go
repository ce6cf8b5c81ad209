package core

// Tests for the server-side observability wiring: op latency
// histograms fill on the hot paths, the clustered-scan planner and
// compaction counters track what actually happened, DisableMetrics
// really disables recording, and StatsView snapshots stay mutually
// consistent under concurrent compaction (-race).

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/readopt"
)

// metricAt returns the snapshot entry for name whose labels contain
// every given fragment.
func metricAt(t *testing.T, reg *obs.Registry, name string, frags ...string) (obs.Metric, bool) {
	t.Helper()
	for _, m := range reg.Snapshot() {
		if m.Name != name {
			continue
		}
		ok := true
		for _, f := range frags {
			if !strings.Contains(m.Labels, f) {
				ok = false
				break
			}
		}
		if ok {
			return m, true
		}
	}
	return obs.Metric{}, false
}

func TestServerMetricsEndToEnd(t *testing.T) {
	s, _ := newTestServer(t, Config{SegmentSize: 1 << 16})
	defer s.Close()

	const sorted, tail = 300, 40
	ts := int64(0)
	for i := 0; i < sorted; i++ {
		ts++
		if err := s.Write(testTablet, testGroup, k6(i), ts, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	sealAndCompactUnsorted(t, s)
	for i := sorted; i < sorted+tail; i++ {
		ts++
		if err := s.Write(testTablet, testGroup, k6(i), ts, []byte("fresh")); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if rows := scanAll(t, s, ts, nil, nil); len(rows) != sorted+tail {
		t.Fatalf("scan rows = %d, want %d", len(rows), sorted+tail)
	}

	reg := s.Metrics()
	put, ok := metricAt(t, reg, "logbase_op_duration_seconds", `op="put"`, `server="ts1"`)
	if !ok || put.Hist.Count != sorted+tail {
		t.Errorf("put histogram count = %d (found=%v), want %d", put.Hist.Count, ok, sorted+tail)
	}
	if scan, ok := metricAt(t, reg, "logbase_op_duration_seconds", `op="scan"`); !ok || scan.Hist.Count == 0 {
		t.Errorf("scan histogram empty (found=%v)", ok)
	}
	if compact, ok := metricAt(t, reg, "logbase_op_duration_seconds", `op="compact"`); !ok || compact.Hist.Count == 0 {
		t.Errorf("compact histogram empty (found=%v)", ok)
	}
	if wal, ok := metricAt(t, reg, "logbase_wal_append_seconds"); !ok || wal.Hist.Count == 0 {
		t.Errorf("wal append histogram empty (found=%v)", ok)
	}

	// Planner counters: the scan above merged sorted segments on the
	// fast path and served the unsorted tail from the index overlay.
	if m, ok := metricAt(t, reg, "logbase_clustered_scans_total"); !ok || m.Value < 1 {
		t.Errorf("clustered_scans_total = %v (found=%v)", m.Value, ok)
	}
	if m, ok := metricAt(t, reg, "logbase_clustered_segments_total"); !ok || m.Value < 1 {
		t.Errorf("clustered_segments_total = %v (found=%v)", m.Value, ok)
	}
	if m, ok := metricAt(t, reg, "logbase_clustered_overlay_rows_total"); !ok || m.Value < tail {
		t.Errorf("overlay_rows_total = %v (found=%v), want >= %d", m.Value, ok, tail)
	}

	// Scrape-time gauges mirror the atomics.
	if m, ok := metricAt(t, reg, "logbase_server_writes"); !ok || m.Value != sorted+tail {
		t.Errorf("logbase_server_writes = %v, want %d", m.Value, sorted+tail)
	}
	if m, ok := metricAt(t, reg, "logbase_compactions"); !ok || m.Value < 1 {
		t.Errorf("logbase_compactions = %v (found=%v)", m.Value, ok)
	}
}

// TestDisableMetrics: latency recording off leaves every histogram
// empty, while the zero-cost gauges keep reporting.
func TestDisableMetrics(t *testing.T) {
	s, _ := newTestServer(t, Config{DisableMetrics: true})
	defer s.Close()
	for i := 0; i < 10; i++ {
		if err := s.Write(testTablet, testGroup, k6(i), int64(i+1), []byte("v")); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	scanAll(t, s, 10, nil, nil)
	for _, m := range s.Metrics().Snapshot() {
		if m.Kind == "histogram" && m.Hist.Count != 0 {
			t.Errorf("disabled metrics still recorded %s%s (count %d)", m.Name, m.Labels, m.Hist.Count)
		}
	}
	if m, ok := metricAt(t, s.Metrics(), "logbase_server_writes"); !ok || m.Value != 10 {
		t.Errorf("gauge logbase_server_writes = %v (found=%v), want 10", m.Value, ok)
	}
}

// TestStatsViewConsistentUnderCompaction hammers StatsView while
// writers and compactions run: every snapshot must be internally
// coherent (non-negative deltas, layout numbers from the same pass) and
// the run must be -race clean.
func TestStatsViewConsistentUnderCompaction(t *testing.T) {
	s, _ := newTestServer(t, Config{SegmentSize: 1 << 14})
	defer s.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		ts := int64(1)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s.Write(testTablet, testGroup, k6(i%200), ts, []byte("vvvvvvvvvvvvvvvv"))
			ts++
		}
	}()
	wg.Add(1)
	go func() { // compactor
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.Log().Rotate()
			var nums []uint32
			for _, si := range s.Log().Segments() {
				if !si.Sorted {
					nums = append(nums, si.Num)
				}
			}
			if len(nums) > 0 {
				s.CompactSegments(nums)
			}
		}
	}()

	var last StatsView
	for i := 0; i < 200; i++ {
		v := s.StatsView()
		if v.Writes < last.Writes || v.Compactions < last.Compactions ||
			v.CompactDropped < last.CompactDropped || v.BytesReclaimed < last.BytesReclaimed {
			t.Fatalf("counters went backwards: %+v -> %+v", last, v)
		}
		if v.SortedFraction < 0 || v.SortedFraction > 1 || v.GarbageRatio < 0 {
			t.Fatalf("layout numbers out of range: %+v", v)
		}
		last = v
	}
	close(stop)
	wg.Wait()
}

// TestPointReadsRecordOneSample: a single-version ReadRow is one "read"
// op and a GetAt one "get" op — neither path records into the other's
// histogram, so per-op counts scraped from /metrics match the ops
// issued.
func TestPointReadsRecordOneSample(t *testing.T) {
	s, _ := newTestServer(t, Config{ReadCacheBytes: 1 << 16})
	defer s.Close()
	if err := s.Write(testTablet, testGroup, k6(1), 1, []byte("v")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	count := func(op string) int64 {
		t.Helper()
		m, ok := metricAt(t, s.Metrics(), "logbase_op_duration_seconds", `op="`+op+`"`)
		if !ok {
			t.Fatalf("no %s histogram", op)
		}
		return m.Hist.Count
	}
	if _, err := s.ReadRow(testTablet, testGroup, k6(1), readopt.Options{}); err != nil {
		t.Fatalf("ReadRow: %v", err)
	}
	if r, g := count("read"), count("get"); r != 1 || g != 0 {
		t.Errorf("after one ReadRow: read=%d get=%d, want 1 and 0", r, g)
	}
	if _, err := s.GetAt(testTablet, testGroup, k6(1), 1); err != nil {
		t.Fatalf("GetAt: %v", err)
	}
	if r, g := count("read"), count("get"); r != 1 || g != 1 {
		t.Errorf("after one GetAt: read=%d get=%d, want 1 and 1", r, g)
	}
}

// TestCompactingGarbageFreeSegmentReclaimsNothing: a run over a segment
// with no garbage rewrites every record and adds sorted-segment framing,
// so its net is not positive; the cumulative counter must stay at zero
// rather than go negative.
func TestCompactingGarbageFreeSegmentReclaimsNothing(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	defer s.Close()
	for i := 0; i < 50; i++ {
		if err := s.Write(testTablet, testGroup, k6(i), int64(i+1), []byte("value")); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	st := sealAndCompactUnsorted(t, s)
	if st.Dropped != 0 || st.RecordsKept != 50 {
		t.Fatalf("garbage-free run dropped %d, kept %d; want 0 and 50", st.Dropped, st.RecordsKept)
	}
	if st.BytesReclaimed > 0 {
		t.Fatalf("garbage-free run reclaimed %d bytes", st.BytesReclaimed)
	}
	if v := s.StatsView(); v.Compactions != 1 || v.BytesReclaimed != 0 {
		t.Errorf("StatsView after a garbage-free run: compactions=%d reclaimed=%d, want 1 and 0",
			v.Compactions, v.BytesReclaimed)
	}
}
