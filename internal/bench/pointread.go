package bench

// Point-read key ops for the CI gate: Get through the public cluster
// surface on a fixture with a read buffer (paper §3.6.2). "get-hit"
// reads a hot set that sits in the buffer, so its modelled disk must be
// zero — a baseline of 0 lets the gate fail on any disk access at all.
// "get-miss" reads cold keys once each, so every read costs exactly one
// log read.

import (
	"context"
	"fmt"
	"os"

	logbase "repro"
	"repro/internal/cluster"
	"repro/internal/ycsb"
)

// PointReadKeyOps loads s.Rows rows into a two-server cluster whose read
// buffers hold about 2×hot rows each, then measures the two point-read
// ops.
func PointReadKeyOps(s Scale) ([]KeyOp, error) {
	rows := int64(s.Rows)
	hot := min(int64(100), rows/10)
	perServer := 2 * hot // buffered rows per server
	c, dir, err := newKeyOpsCluster(2, perServer*int64(s.ValueSize+8))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	defer c.Close()
	st := logbase.NewClusterClient(c)
	ctx := context.Background()
	val := value(s.ValueSize, 11)
	for i := int64(0); i < rows; i++ {
		if err := st.Put(ctx, "usertable", "f0", ycsb.Key(i), val); err != nil {
			return nil, err
		}
	}
	get := func(i int64) error {
		row, err := st.Get(ctx, "usertable", "f0", ycsb.Key(i))
		if err != nil {
			return err
		}
		if len(row.Value) != len(val) {
			return fmt.Errorf("key %d: %d-byte value, want %d", i, len(row.Value), len(val))
		}
		return nil
	}
	// Warm the hot set: keys [0, hot) were written first and have been
	// evicted by the later writes.
	for i := int64(0); i < hot; i++ {
		if err := get(i); err != nil {
			return nil, err
		}
	}

	var out []KeyOp
	ops := int64(s.Ops)
	hits, logReads := readCounters(c)
	op, err := measureKeyOp("get-hit", c, ops, func() error {
		for i := int64(0); i < ops; i++ {
			if err := get(i % hot); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if h, r := readCounters(c); h-hits != ops || r != logReads {
		return nil, fmt.Errorf("get-hit: %d buffer hits and %d log reads for %d reads, want all hits", h-hits, r-logReads, ops)
	}
	out = append(out, op)

	// Cold keys: written after the hot set but before the last
	// 2×perServer writes, which are all the buffers can still hold.
	// Each is read once, oldest first, so no read finds its key
	// buffered.
	cold := min(ops, rows-hot-2*perServer)
	if cold <= 0 {
		return nil, fmt.Errorf("get-miss: %d rows leave no cold keys", rows)
	}
	hits, logReads = readCounters(c)
	op, err = measureKeyOp("get-miss", c, cold, func() error {
		for i := int64(0); i < cold; i++ {
			if err := get(hot + i); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if h, r := readCounters(c); h != hits || r-logReads != cold {
		return nil, fmt.Errorf("get-miss: %d buffer hits and %d log reads for %d reads, want one log read each", h-hits, r-logReads, cold)
	}
	return append(out, op), nil
}

// readCounters sums read-buffer hits and log reads over live servers.
func readCounters(c *cluster.Cluster) (hits, logReads int64) {
	for _, id := range c.LiveServers() {
		st := c.Server(id).Stats()
		hits += st.CacheHits.Load()
		logReads += st.LogReads.Load()
	}
	return hits, logReads
}
