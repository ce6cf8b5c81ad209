package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	logbase "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/simdisk"
	"repro/internal/ycsb"
)

// The deployment is the one logbase-server ships for -servers 3: three
// tablet servers over a three-datanode DFS with replication 3, group
// commit on and a 32 MB read cache per server. The disk model charges
// the virtual clock only (Sleep off), so wall time measures the program
// and the clock measures the paper's disk.
const (
	numServers  = 3
	numDataNode = 3
	replication = 3
	cacheBytes  = 32 << 20
	numClients  = 2
	// preloadBatch is the number of rows per WriteBatch flush in preload.
	preloadBatch = 512
)

// deployConfig is everything that shapes one deployment, echoed in the
// benchmark's output so a run can be reproduced.
type deployConfig struct {
	Servers        int     `json:"servers"`
	DataNodes      int     `json:"datanodes"`
	Replication    int     `json:"replication"`
	CacheBytes     int64   `json:"cache_bytes_per_server"`
	GroupCommit    bool    `json:"group_commit"`
	SegmentBytes   int64   `json:"segment_bytes"`
	AutoCompactMS  int64   `json:"autocompact_interval_ms"`
	Rows           int64   `json:"rows"`
	Accounts       int64   `json:"accounts"`
	ValueBytes     int     `json:"value_bytes"`
	DiskSeekMS     float64 `json:"disk_seek_ms"`
	DiskReadMBps   int64   `json:"disk_read_mb_s"`
	DiskWriteMBps  int64   `json:"disk_write_mb_s"`
	DiskSleep      bool    `json:"disk_sleep"`
	Clients        int     `json:"clients"`
	ClientLoop     string  `json:"client_loop"`
	GoVersion      string  `json:"go_version"`
	NProc          int     `json:"nproc"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	SetupRepeats   int     `json:"setup_repeats"`
	MeasureSeconds float64 `json:"measure_seconds"`
}

func (s workloadSpec) deployConfig(setups int, seconds float64) deployConfig {
	m := simdisk.DefaultModel()
	seg := s.segmentBytes
	if seg == 0 {
		seg = 64 << 20 // core.Config's default rotation size
	}
	return deployConfig{
		Servers: numServers, DataNodes: numDataNode, Replication: replication,
		CacheBytes: cacheBytes, GroupCommit: true,
		SegmentBytes: seg, AutoCompactMS: s.autoCompact.Milliseconds(),
		Rows: s.rows, Accounts: s.accounts, ValueBytes: valueSize,
		DiskSeekMS:    float64(m.SeekLatency) / float64(time.Millisecond),
		DiskReadMBps:  m.ReadBytesPerSec >> 20,
		DiskWriteMBps: m.WriteBytesPerSec >> 20,
		DiskSleep:     m.Sleep,
		Clients:       numClients, ClientLoop: "closed",
		GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		SetupRepeats: setups, MeasureSeconds: seconds,
	}
}

// deployment is one running cluster and the state the benchmark keeps
// about it.
type deployment struct {
	spec  workloadSpec
	dir   string
	clock *simdisk.Clock
	c     *cluster.Cluster
	cc    *logbase.ClusterClient
	vals  *values
	// rangeCount / rangeSum are the preloaded rows' COUNT and SUM per
	// leading key byte: what a range aggregate over [b, b+1) must return.
	rangeCount [256]int64
	rangeSum   [256]int64
}

// setUp creates a deployment under parent, preloads it and warms it.
func setUp(ctx context.Context, parent string, spec workloadSpec, seed int64) (*deployment, error) {
	dir, err := os.MkdirTemp(parent, "cluster-")
	if err != nil {
		return nil, fmt.Errorf("create cluster dir: %w", err)
	}
	d := &deployment{spec: spec, dir: dir, clock: &simdisk.Clock{}, vals: newValues(seed)}
	tables := []cluster.TableSpec{{Name: mainTable, Groups: []string{group}}}
	if spec.accounts > 0 {
		tables = append(tables, cluster.TableSpec{Name: accountTable, Groups: []string{group}})
	}
	d.c, err = cluster.New(filepath.Join(dir, "dfs"), cluster.Config{
		NumServers: numServers,
		Tables:     tables,
		Server: core.Config{
			GroupCommit:    true,
			ReadCacheBytes: cacheBytes,
			SegmentSize:    spec.segmentBytes,
			AutoCompact:    core.AutoCompactConfig{Interval: spec.autoCompact},
		},
		DFS: dfs.Config{
			NumDataNodes:      numDataNode,
			ReplicationFactor: replication,
			DiskModel:         simdisk.DefaultModel(),
			Clock:             d.clock,
		},
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("create cluster: %w", err)
	}
	d.cc = logbase.NewClusterClient(d.c)
	if err := d.preload(ctx); err != nil {
		d.tearDown()
		return nil, err
	}
	if err := d.warmUp(ctx, seed); err != nil {
		d.tearDown()
		return nil, err
	}
	return d, nil
}

// tearDown closes the cluster and removes its files.
func (d *deployment) tearDown() {
	d.cc.Close()
	os.RemoveAll(d.dir)
}

// parallel runs fn(w) for w in [0, numClients) and returns the first
// error.
func parallel(fn func(w int) error) error {
	errs := make([]error, numClients)
	var wg sync.WaitGroup
	for w := 0; w < numClients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = fn(w)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// preload writes version 0 of every row, and every account at its
// initial balance, through the cluster bulk-load path.
func (d *deployment) preload(ctx context.Context) error {
	for i := int64(0); i < d.spec.rows; i++ {
		b := rowKey(i)[0]
		d.rangeCount[b]++
		d.rangeSum[b] += rowNum(i)
	}
	err := parallel(func(w int) error {
		b := d.cc.Batch()
		for i := int64(w); i < d.spec.rows; i += numClients {
			b.Put(mainTable, group, rowKey(i), d.vals.value(i, 0))
			if b.Len() == preloadBatch {
				if err := b.Flush(ctx); err != nil {
					return err
				}
			}
		}
		return b.Flush(ctx)
	})
	if err != nil {
		return fmt.Errorf("preload %s: %w", mainTable, err)
	}
	b := d.cc.Batch()
	for i := int64(0); i < d.spec.accounts; i++ {
		b.Put(accountTable, group, accountKey(i), []byte(fmt.Sprint(initialBalance)))
	}
	if err := b.Flush(ctx); err != nil {
		return fmt.Errorf("preload %s: %w", accountTable, err)
	}
	return nil
}

// warmUp brings the deployment to the state the timed phase starts
// from: caches filled (bulk loads bypass the read cache) or the preload
// compacted into sorted segments.
func (d *deployment) warmUp(ctx context.Context, seed int64) error {
	switch d.spec.warm {
	case warmAllRows:
		return parallel(func(w int) error {
			for i := int64(w); i < d.spec.rows; i += numClients {
				if _, err := d.cc.Get(ctx, mainTable, group, rowKey(i)); err != nil {
					return fmt.Errorf("warm-up read of row %d: %w", i, err)
				}
			}
			return nil
		})
	case warmZipfReads:
		gen := ycsb.NewScrambledZipfian(d.spec.rows, zipfTheta)
		return parallel(func(w int) error {
			// A stream of its own, so the timed phase's draws do not
			// depend on how many warm-up reads there were.
			rng := rand.New(rand.NewSource(seed ^ int64(0x5eed<<8|w)))
			for n := int64(w); n < d.spec.rows; n += numClients {
				i := gen.Next(rng)
				if _, err := d.cc.Get(ctx, mainTable, group, rowKey(i)); err != nil {
					return fmt.Errorf("warm-up read of row %d: %w", i, err)
				}
			}
			return nil
		})
	case warmCompact:
		if err := d.c.CompactAll(); err != nil {
			return fmt.Errorf("warm-up compaction: %w", err)
		}
	}
	return nil
}
