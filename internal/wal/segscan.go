package wal

import (
	"errors"
	"fmt"

	"repro/internal/dfs"
)

// segScanChunkSize is the SegmentScanner read-ahead unit. Larger than
// the log Scanner's: the clustered scan path k-way-merges several
// segment streams, and each stream switch moves the disk head, so
// fewer, bigger refills keep the merge transfer-bound instead of
// seek-bound.
const segScanChunkSize = 2 << 20

// SegmentScanner streams one segment's records sequentially, without
// touching the per-key index — the clustered read path over sorted
// segments (paper §3.6.4: post-compaction scans are sequential reads).
// It pins the segment for its lifetime, so a concurrent compaction
// cannot delete the file underneath it; always Close.
//
// Refills are contiguous (the partial frame at the buffer tail is
// carried over, never re-read), so a full stream costs one seek per
// refill at most and pure sequential transfer otherwise.
type SegmentScanner struct {
	l   *Log
	num uint32
	r   *dfs.Reader
	end int64 // record-area end (footer excluded)
	off int64

	win readWindow
	// firstRefill, when > 0, sizes the first read instead of
	// segScanChunkSize (see Bound).
	firstRefill int

	pinned bool

	rec Record
	ptr Ptr
	err error
}

// OpenSegmentScanner returns a scanner over segment num starting at
// byte offset from (0 or anything below the header means "from the
// first record"). from must be a record boundary — typically
// SegmentMeta.SeekOffset or a Ptr.Off.
func (l *Log) OpenSegmentScanner(num uint32, from int64) (*SegmentScanner, error) {
	l.mu.Lock()
	st, ok := l.segs[num]
	if !ok {
		l.mu.Unlock()
		return nil, fmt.Errorf("wal: segment %d not live", num)
	}
	st.pins++
	end := st.dataEnd
	r, err := l.readerLocked(num)
	l.mu.Unlock()
	if err != nil {
		l.Unpin(num)
		return nil, err
	}
	if from < segHeaderSize {
		from = segHeaderSize
	}
	return &SegmentScanner{l: l, num: num, r: r, end: end, off: from, pinned: true}, nil
}

// Close releases the segment pin. Idempotent.
func (s *SegmentScanner) Close() {
	if s.pinned {
		s.l.Unpin(s.num)
		s.pinned = false
	}
}

// Bound narrows the scanner to a range scan, before the first Next:
// reads stop at byte offset to (a record boundary, typically
// SegmentMeta.EndOffset; 0 = no cut), and when want > 0 the first
// refill covers one sparse-index stride — the most a
// SegmentMeta.SeekOffset start can precede the range — plus want
// records of the segment's average size, instead of a full chunk.
// Later refills use the full chunk. Sweeps (compaction, changefeed
// catch-up, unlimited scans) leave the scanner unbounded, so they keep
// streaming in full chunks.
func (s *SegmentScanner) Bound(to int64, want int) {
	if meta := s.l.SegmentMeta(s.num); want > 0 && meta != nil && meta.Rows > 0 {
		avg := (s.end - segHeaderSize) / int64(meta.Rows)
		if first := sparseIndexStride + int64(want)*avg; first < segScanChunkSize {
			s.firstRefill = int(first)
		}
	}
	if to > 0 && to < s.end {
		s.end = to
	}
}

func (s *SegmentScanner) window(want int) ([]byte, error) {
	chunk := segScanChunkSize
	if s.win.buf == nil && s.firstRefill > 0 {
		chunk = s.firstRefill
	}
	return s.win.at(s.r, s.off, s.end, want, chunk)
}

// Next advances to the next record, returning false at the end of the
// record area or on error (check Err). Exhaustion does NOT unpin — the
// merge may still resolve Ptrs into the segment; Close does.
func (s *SegmentScanner) Next() bool {
	if s.err != nil || s.off >= s.end {
		return false
	}
	frame, err := s.window(frameHeaderSize)
	if err != nil {
		s.err = err
		return false
	}
	if len(frame) >= frameHeaderSize {
		n := int(uint32(frame[0]) | uint32(frame[1])<<8 | uint32(frame[2])<<16 | uint32(frame[3])<<24)
		if len(frame) < frameHeaderSize+n {
			if frame, err = s.window(frameHeaderSize + n); err != nil {
				s.err = err
				return false
			}
		}
	}
	rec, consumed, derr := Decode(frame)
	if derr != nil {
		if errors.Is(derr, ErrTorn) {
			return false
		}
		s.err = fmt.Errorf("wal: seg %d @%d: %w", s.num, s.off, derr)
		return false
	}
	s.rec = rec
	s.ptr = Ptr{Seg: s.num, Off: s.off, Len: uint32(consumed)}
	s.off += int64(consumed)
	return true
}

// Record returns the current record.
func (s *SegmentScanner) Record() Record { return s.rec }

// Ptr returns the current record's location.
func (s *SegmentScanner) Ptr() Ptr { return s.ptr }

// Err returns the first error encountered.
func (s *SegmentScanner) Err() error { return s.err }
