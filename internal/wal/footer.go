package wal

// Segment footer metadata (paper §3.6.5): compaction writes each sorted
// segment with a footer describing what is inside — the min/max
// clustering key (table, column group, record key), row and LSN ranges,
// and a sparse block index sampling one record position every
// sparseIndexStride bytes. The clustered scan planner uses the min/max
// keys to pick only the segments covering a requested range and the
// sparse index to start streaming near the range's first key instead of
// at the segment head.
//
// Layout: the footer payload is appended after the last record, then a
// fixed-size trailer [u32 payloadLen | u32 crc32(payload) | 8-byte
// magic] closes the file. Readers find the footer by reading the
// trailer at end-of-file; segments without the trailing magic (all
// unsorted segments, and pre-footer logs) simply have no footer. The
// record area of a footed segment ends where the footer begins
// (segState.dataEnd), so log scans never try to decode footer bytes as
// records.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

var footerMagic = []byte{'L', 'B', 'S', 'F', 'T', 'R', '0', '1'}

const footerTrailerSize = 16 // u32 len + u32 crc + 8-byte magic

// sparseIndexStride is the sparse block index granularity: one entry
// per this many record bytes.
const sparseIndexStride = 64 << 10

// RecordKey is the clustering key compaction sorts by: (table, column
// group, record key).
type RecordKey struct {
	Table string
	Group string
	Key   []byte
}

// Compare orders clustering keys lexicographically by (Table, Group,
// Key).
func (k RecordKey) Compare(o RecordKey) int {
	if k.Table != o.Table {
		if k.Table < o.Table {
			return -1
		}
		return 1
	}
	if k.Group != o.Group {
		if k.Group < o.Group {
			return -1
		}
		return 1
	}
	return bytes.Compare(k.Key, o.Key)
}

// SparseEntry is one sparse block index sample: the clustering key and
// timestamp of the record starting at Off.
type SparseEntry struct {
	Key RecordKey
	TS  int64
	Off int64
}

// SegmentMeta is the decoded footer of one sorted segment.
type SegmentMeta struct {
	// Min and Max bound the clustering keys present (inclusive).
	Min, Max RecordKey
	// Rows is the number of records in the segment.
	Rows uint32
	// MinLSN and MaxLSN bound the record LSNs present.
	MinLSN, MaxLSN uint64
	// Sparse samples record positions roughly every sparseIndexStride
	// bytes, ascending by clustering key and offset. The first record of
	// the segment is always sampled.
	Sparse []SparseEntry
}

// Covers reports whether [lo, hi) intersects the segment's key range
// for the given table and group. A nil hi.Key with hiOpen means "to the
// end of the (table, group) space".
func (m *SegmentMeta) Covers(table, group string, start, end []byte) bool {
	lo := RecordKey{Table: table, Group: group, Key: start}
	if m.Max.Compare(lo) < 0 {
		return false
	}
	if end != nil {
		hi := RecordKey{Table: table, Group: group, Key: end}
		// end is exclusive: a segment whose min is >= hi is out.
		if m.Min.Compare(hi) >= 0 {
			return false
		}
		return true
	}
	// Open upper bound: out only when the segment ends before (table,
	// group, start) or starts after the whole (table, group) space.
	if m.Min.Table > table || (m.Min.Table == table && m.Min.Group > group) {
		return false
	}
	return true
}

// SeekOffset returns the best byte offset at which to start a
// sequential scan that must observe every record with clustering key >=
// target: the largest sampled position whose key is <= target (the
// record area start if none).
func (m *SegmentMeta) SeekOffset(target RecordKey) int64 {
	off := int64(segHeaderSize)
	for _, se := range m.Sparse {
		if se.Key.Compare(target) > 0 {
			break
		}
		off = se.Off
	}
	return off
}

// EndOffset returns the byte offset at which a sequential scan that
// wants only records with clustering key < target may stop: the
// position of the first sampled record whose key is >= target. Records
// are sorted, so every record before that offset is < target or equal
// to it, and none after it is < target. It returns 0 when no sample
// reaches target (the scan must read to the end of the record area).
func (m *SegmentMeta) EndOffset(target RecordKey) int64 {
	for _, se := range m.Sparse {
		if se.Key.Compare(target) >= 0 {
			return se.Off
		}
	}
	return 0
}

func putRecordKey(buf []byte, k RecordKey) []byte {
	buf = putString(buf, k.Table)
	buf = putString(buf, k.Group)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(k.Key)))
	return append(buf, k.Key...)
}

func (p *payloadReader) recordKey() RecordKey {
	var k RecordKey
	k.Table = p.str()
	k.Group = p.str()
	n := p.u32()
	if p.err != nil || p.off+int(n) > len(p.b) {
		p.fail()
		return RecordKey{}
	}
	k.Key = append([]byte(nil), p.b[p.off:p.off+int(n)]...)
	p.off += int(n)
	return k
}

// encodeFooter serialises the footer: payload + trailer.
func encodeFooter(m *SegmentMeta) []byte {
	buf := make([]byte, 0, 256+len(m.Sparse)*48)
	buf = binary.LittleEndian.AppendUint16(buf, 1) // version
	buf = putRecordKey(buf, m.Min)
	buf = putRecordKey(buf, m.Max)
	buf = binary.LittleEndian.AppendUint32(buf, m.Rows)
	buf = binary.LittleEndian.AppendUint64(buf, m.MinLSN)
	buf = binary.LittleEndian.AppendUint64(buf, m.MaxLSN)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Sparse)))
	for _, se := range m.Sparse {
		buf = putRecordKey(buf, se.Key)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(se.TS))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(se.Off))
	}
	out := make([]byte, 0, len(buf)+footerTrailerSize)
	out = append(out, buf...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(buf)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(buf))
	return append(out, footerMagic...)
}

func decodeFooterPayload(payload []byte) (*SegmentMeta, error) {
	pr := &payloadReader{b: payload}
	if v := pr.u16(); v != 1 {
		return nil, fmt.Errorf("%w: footer version %d", ErrCorrupt, v)
	}
	m := &SegmentMeta{}
	m.Min = pr.recordKey()
	m.Max = pr.recordKey()
	m.Rows = pr.u32()
	m.MinLSN = pr.u64()
	m.MaxLSN = pr.u64()
	n := pr.u32()
	if pr.err == nil && int(n) <= len(payload) {
		m.Sparse = make([]SparseEntry, 0, n)
		for i := uint32(0); i < n && pr.err == nil; i++ {
			var se SparseEntry
			se.Key = pr.recordKey()
			se.TS = int64(pr.u64())
			se.Off = int64(pr.u64())
			m.Sparse = append(m.Sparse, se)
		}
	}
	if pr.err != nil {
		return nil, fmt.Errorf("%w: segment footer", ErrCorrupt)
	}
	return m, nil
}

// readFooter reads and decodes the footer of the segment file behind r
// (total size fileSize). Returns (nil, dataEnd=fileSize, nil) when the
// file carries no footer.
func readFooter(r io.ReaderAt, fileSize int64) (*SegmentMeta, int64, error) {
	if fileSize < segHeaderSize+footerTrailerSize {
		return nil, fileSize, nil
	}
	trailer := make([]byte, footerTrailerSize)
	if _, err := r.ReadAt(trailer, fileSize-footerTrailerSize); err != nil && err != io.EOF {
		return nil, fileSize, err
	}
	if !bytes.Equal(trailer[8:], footerMagic) {
		return nil, fileSize, nil
	}
	plen := int64(binary.LittleEndian.Uint32(trailer))
	sum := binary.LittleEndian.Uint32(trailer[4:])
	dataEnd := fileSize - footerTrailerSize - plen
	if dataEnd < segHeaderSize {
		return nil, fileSize, fmt.Errorf("%w: footer length %d", ErrCorrupt, plen)
	}
	payload := make([]byte, plen)
	if _, err := r.ReadAt(payload, dataEnd); err != nil && err != io.EOF {
		return nil, fileSize, err
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fileSize, fmt.Errorf("%w: footer checksum", ErrCorrupt)
	}
	m, err := decodeFooterPayload(payload)
	if err != nil {
		return nil, fileSize, err
	}
	return m, dataEnd, nil
}
