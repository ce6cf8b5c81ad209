package wal

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// versionedRecord is record i of a sorted segment holding four
// versions per key, so sparse samples regularly land mid-key.
func versionedRecord(i int) *Record {
	return &Record{
		Kind: KindWrite, Table: "tab", Tablet: "tab/0000", Group: "g",
		Key: []byte(fmt.Sprintf("key%06d", i/4)), TS: int64(i + 1),
		Value: bytes.Repeat([]byte{byte(i)}, 100), LSN: uint64(i + 1),
	}
}

func diskBytesRead(l *Log) int64 {
	var n int64
	for i := 0; i < l.fs.NumDataNodes(); i++ {
		n += l.fs.DataNode(i).Disk().Stats().BytesRead
	}
	return n
}

// TestBoundedSegmentScanKeepsEveryRecordBelowEnd checks EndOffset and
// SegmentScanner.Bound against a brute-force filter: a scan started at
// SeekOffset(start) and cut at EndOffset(end) returns every record
// with start <= key < end, whatever the first-refill hint, and reads
// no further than the cut.
func TestBoundedSegmentScanKeepsEveryRecordBelowEnd(t *testing.T) {
	_, l := footerTestLog(t)
	const n = 4000
	sw := l.NewSegmentWriter(true)
	var all []*Record
	for i := 0; i < n; i++ {
		rec := versionedRecord(i)
		all = append(all, rec)
		if _, err := sw.Append(rec); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	num := sw.Segments()[0]
	meta := l.SegmentMeta(num)
	if meta == nil || len(meta.Sparse) < 4 {
		t.Fatalf("want a footer with several sparse samples, got %+v", meta)
	}
	rk := func(k []byte) RecordKey { return RecordKey{Table: "tab", Group: "g", Key: k} }

	// Range ends on sample keys (earlier versions of the same key sit
	// before the sample), just past them, and at random keys.
	var ends [][]byte
	for _, se := range meta.Sparse {
		ends = append(ends, se.Key.Key, append(append([]byte(nil), se.Key.Key...), 0))
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		ends = append(ends, []byte(fmt.Sprintf("key%06d", rng.Intn(n/4+10))))
	}
	for _, end := range ends {
		start := []byte(fmt.Sprintf("key%06d", rng.Intn(n/4)))
		if bytes.Compare(start, end) >= 0 {
			start = nil
		}
		var want []int64 // timestamps identify records: one per record
		for _, rec := range all {
			if bytes.Compare(rec.Key, start) >= 0 && bytes.Compare(rec.Key, end) < 0 {
				want = append(want, rec.TS)
			}
		}
		from, to := meta.SeekOffset(rk(start)), meta.EndOffset(rk(end))
		for _, hint := range []int{0, 1, 100} {
			before := diskBytesRead(l)
			sc, err := l.OpenSegmentScanner(num, from)
			if err != nil {
				t.Fatalf("OpenSegmentScanner: %v", err)
			}
			sc.Bound(to, hint)
			var got []Record
			for sc.Next() {
				rec := sc.Record()
				if to > 0 && sc.Ptr().Off >= to {
					t.Fatalf("end %q: record at %d past the cut %d", end, sc.Ptr().Off, to)
				}
				if bytes.Compare(rec.Key, start) >= 0 && bytes.Compare(rec.Key, end) < 0 {
					got = append(got, rec)
				}
			}
			if err := sc.Err(); err != nil {
				t.Fatalf("scan: %v", err)
			}
			sc.Close()
			if len(got) != len(want) {
				t.Fatalf("[%q, %q) hint %d: %d records, want %d", start, end, hint, len(got), len(want))
			}
			for i, rec := range got {
				if rec.TS != want[i] {
					t.Fatalf("[%q, %q) hint %d: record %d has ts %d, want %d", start, end, hint, i, rec.TS, want[i])
				}
			}
			if to > 0 {
				if read := diskBytesRead(l) - before; read > to-from {
					t.Fatalf("[%q, %q) hint %d: read %d bytes, cut allows %d", start, end, hint, read, to-from)
				}
			}
		}
	}

	// Past the last sample nothing bounds the scan.
	if off := meta.EndOffset(rk([]byte("zzz"))); off != 0 {
		t.Fatalf("EndOffset past every key = %d, want 0", off)
	}
}

// TestSegmentScannerFirstRefillHint checks that a limited scan's first
// read covers one sparse stride plus the wanted records, not a full
// chunk, and that later refills still stream the rest of the segment.
func TestSegmentScannerFirstRefillHint(t *testing.T) {
	_, l := footerTestLog(t)
	nums := writeSortedSegment(t, l, 6000) // ~1 MB of records
	num := nums[0]
	before := diskBytesRead(l)
	sc, err := l.OpenSegmentScanner(num, 0)
	if err != nil {
		t.Fatalf("OpenSegmentScanner: %v", err)
	}
	defer sc.Close()
	sc.Bound(0, 10)
	if !sc.Next() {
		t.Fatalf("empty scan: %v", sc.Err())
	}
	avg := (sc.end - segHeaderSize) / 6000
	if read, limit := diskBytesRead(l)-before, sparseIndexStride+10*avg; read > limit {
		t.Fatalf("first refill read %d bytes, want <= %d", read, limit)
	}
	rows := 1
	for sc.Next() {
		rows++
	}
	if err := sc.Err(); err != nil || rows != 6000 {
		t.Fatalf("full stream after a hinted first refill: %d rows, err %v", rows, err)
	}
}
