package main

import (
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/simdisk"
)

// Per-layer counters, read from outside through each layer's public
// stats before and after the timed phase.

// counterSnap is one reading of every counter the benchmark uses.
type counterSnap struct {
	reg   []obs.Metric
	clock time.Duration

	writes, reads, logReads      int64
	cacheHits, cacheMisses       int64
	compactions                  int64
	logBytes, sortedBytes        int64
	indexBytes                   int64
	txCommits, txAborts, txRetry int64
	disk                         simdisk.Stats

	allocs, allocBytes uint64
	gcCPU, totalCPU    float64
	liveServers        []string
}

var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (d *deployment) snapshot() counterSnap {
	s := counterSnap{reg: d.c.Metrics().Snapshot(), clock: d.clock.Elapsed()}
	s.liveServers = d.c.LiveServers()
	for _, id := range s.liveServers {
		srv := d.c.Server(id)
		st := srv.Stats()
		s.writes += st.Writes.Load()
		s.reads += st.Reads.Load()
		s.logReads += st.LogReads.Load()
		cs := srv.CacheStats()
		s.cacheHits += cs.Hits
		s.cacheMisses += cs.Misses
		info := srv.CompactionInfo()
		s.compactions += info.Runs
		s.logBytes += info.LogBytes
		for _, seg := range info.Segments {
			if seg.Sorted {
				s.sortedBytes += seg.Size
			}
		}
		s.indexBytes += srv.IndexMemBytes()
	}
	s.txCommits, s.txAborts, s.txRetry = d.c.TxnManager().Stats()
	for i := 0; i < d.c.FS().NumDataNodes(); i++ {
		ds := d.c.FS().DataNode(i).Disk().Stats()
		s.disk.Seeks += ds.Seeks
		s.disk.ReadOps += ds.ReadOps
		s.disk.WriteOps += ds.WriteOps
		s.disk.BytesRead += ds.BytesRead
		s.disk.BytesWritten += ds.BytesWritten
	}
	rs := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		rs[i].Name = name
	}
	metrics.Read(rs)
	s.allocs, s.allocBytes = rs[0].Value.Uint64(), rs[1].Value.Uint64()
	s.gcCPU, s.totalCPU = rs[2].Value.Float64(), rs[3].Value.Float64()
	return s
}

// parseLabels reads obs's canonical `{k="v",...}` label rendering
// (values quoted with %q).
func parseLabels(s string) map[string]string {
	out := make(map[string]string)
	s = strings.TrimSuffix(strings.TrimPrefix(s, "{"), "}")
	for s != "" {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			break
		}
		q, err := strconv.QuotedPrefix(s[eq+1:])
		if err != nil {
			break
		}
		v, _ := strconv.Unquote(q) // QuotedPrefix returned a valid literal
		out[s[:eq]] = v
		s = strings.TrimPrefix(s[eq+1+len(q):], ",")
	}
	return out
}

// seriesMatch reports whether a series' labels contain every pair of
// want.
func seriesMatch(labels string, want map[string]string) bool {
	if len(want) == 0 {
		return true
	}
	got := parseLabels(labels)
	for k, v := range want {
		if got[k] != v {
			return false
		}
	}
	return true
}

// histTotals sums Count and Sum over the histogram series named name
// whose labels match want.
func histTotals(ms []obs.Metric, name string, want map[string]string) (count, sum int64) {
	for _, m := range ms {
		if m.Name == name && m.Kind == "histogram" && seriesMatch(m.Labels, want) {
			count += m.Hist.Count
			sum += m.Hist.Sum
		}
	}
	return count, sum
}

// valueTotal sums the counter or gauge series named name whose labels
// match want.
func valueTotal(ms []obs.Metric, name string, want map[string]string) float64 {
	var v float64
	for _, m := range ms {
		if m.Name == name && m.Kind != "histogram" && seriesMatch(m.Labels, want) {
			v += m.Value
		}
	}
	return v
}

// histDelta is the (count, sum) a histogram gained between two
// snapshots.
func histDelta(before, after []obs.Metric, name string, want map[string]string) (count, sum int64) {
	c0, s0 := histTotals(before, name, want)
	c1, s1 := histTotals(after, name, want)
	return c1 - c0, s1 - s0
}

func valueDelta(before, after []obs.Metric, name string, want map[string]string) float64 {
	return valueTotal(after, name, want) - valueTotal(before, name, want)
}

// meanDeltaUS is the mean, in microseconds, of the nanosecond values a
// histogram recorded between two snapshots (0 when it recorded none).
func meanDeltaUS(before, after []obs.Metric, name string, want map[string]string) float64 {
	n, sum := histDelta(before, after, name, want)
	return ratio(float64(sum)/1e3, float64(n))
}

// serverOps counts the foreground ops each server completed between two
// snapshots: every logbase_op_duration_seconds series but compaction.
func serverOps(before, after []obs.Metric) map[string]int64 {
	out := make(map[string]int64)
	total := func(ms []obs.Metric, sign int64) {
		for _, m := range ms {
			if m.Name != "logbase_op_duration_seconds" || m.Kind != "histogram" {
				continue
			}
			l := parseLabels(m.Labels)
			if l["op"] == "compact" {
				continue
			}
			out[l["server"]] += sign * m.Hist.Count
		}
	}
	total(after, 1)
	total(before, -1)
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// phaseMonitor follows a timed phase round by round: it samples heap
// object bytes every 5 ms through runtime/metrics, which reads without
// stopping the world, keeping each round's peak, and reads the process
// CPU time at every round boundary.
type phaseMonitor struct {
	stop chan struct{}
	done sync.WaitGroup
	peak []uint64        // per round
	cpu  []time.Duration // at each round boundary, the first at start
}

func startMonitor(start time.Time, rounds int, roundLen time.Duration) *phaseMonitor {
	m := &phaseMonitor{stop: make(chan struct{}), peak: make([]uint64, rounds), cpu: []time.Duration{processCPU()}}
	m.done.Add(1)
	go func() {
		defer m.done.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			at := time.Since(start)
			for len(m.cpu) <= rounds && at >= time.Duration(len(m.cpu))*roundLen {
				m.cpu = append(m.cpu, processCPU())
			}
			metrics.Read(s)
			r := min(int(at/roundLen), rounds-1)
			m.peak[r] = max(m.peak[r], s[0].Value.Uint64())
			select {
			case <-m.stop:
				for len(m.cpu) <= rounds {
					m.cpu = append(m.cpu, processCPU())
				}
				return
			case <-t.C:
			}
		}
	}()
	return m
}

// Stop ends the monitoring; call it once the phase's clients are done.
func (m *phaseMonitor) Stop() {
	close(m.stop)
	m.done.Wait()
}
