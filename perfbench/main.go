// Command perfbench is LogBase's end-to-end benchmark. It runs one named
// workload against an in-process logbase.ClusterClient deployed like
// logbase-server -servers 3, checks the outputs are correct, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer metrics) as
// "metric" lines followed by one JSON object on the last line:
//
//	bash perfbench/run.sh --workload write-heavy --seed 1 --seconds 15 --trace 0
//
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

type metricDef struct{ name, unit string }

// phaseRounds is the number of equal rounds a timed phase is split into.
const phaseRounds = 15

// endToEnd are the metrics an untraced run reports in its JSON line;
// every workload reports each of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops_s", "1/s"},
	{"primary_p50_us", "us"},
	{"disk_model_us_per_op", "us"},
	{"cpu_us_per_op", "us"},
	{"heap_peak_mb", "MB"},
}

// perLayer are the metrics a traced run reports in its JSON line.
var perLayer = []metricDef{
	{"cluster.retries_per_kop", "count"},
	{"cluster.server_share_max", "ratio"},
	{"txn.abort_ratio", "ratio"},
	{"txn.restarts_per_tx", "count"},
	{"core.put_busy_us", "us"},
	{"core.read_busy_us", "us"},
	{"core.log_reads_per_read", "count"},
	{"core.index_bytes_per_row", "B"},
	{"core.clustered_scan_share", "ratio"},
	{"core.segments_per_clustered_scan", "count"},
	{"core.overlay_rows_per_scan", "count"},
	{"core.sorted_fraction", "ratio"},
	{"core.compaction_runs", "count"},
	{"core.compaction_busy_s", "s"},
	{"core.recovery_mb_per_s", "MB/s"},
	{"cache.hit_ratio", "ratio"},
	{"wal.append_us", "us"},
	{"wal.flush_us", "us"},
	{"wal.batch_wait_us", "us"},
	{"wal.records_per_flush", "count"},
	{"wal.bytes_per_user_byte", "ratio"},
	{"dfs.bytes_stored_per_user_byte", "ratio"},
	{"simdisk.seeks_per_op", "count"},
	{"simdisk.reads_per_op", "count"},
	{"simdisk.writes_per_op", "count"},
	{"simdisk.read_bytes_per_op", "B"},
	{"simdisk.write_bytes_per_op", "B"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"logbase.put.self_us", "us"},
	{"logbase.read.self_us", "us"},
	{"logbase.scan.self_us", "us"},
	{"logbase.tx.self_us", "us"},
	{"cluster.put.self_us", "us"},
	{"cluster.read.self_us", "us"},
	{"cluster.scan.self_us", "us"},
	{"txn.tx.total_us", "us"},
	{"core.put.self_us", "us"},
	{"core.read.self_us", "us"},
	{"core.scan.self_us", "us"},
	{"query.agg.self_us", "us"},
	{"wal.put.self_us", "us"},
	{"dfs.put.self_us", "us"},
	{"dfs.read.self_us", "us"},
	{"simdisk.put.self_us", "us"},
	{"simdisk.read.self_us", "us"},
	{"trace.overhead_pct", "%"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run: write-heavy, read-zipf or scan-mix")
	seed := fl.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fl.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fl.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	dir := fl.String("dir", ".bench_build/perfbench", "directory for the cluster's files and the spans")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	spec, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (write-heavy, read-zipf or scan-mix), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	cfg := runConfig{spec: spec, seed: *seed, seconds: *seconds, trace: *trace == 1, dir: *dir,
		setups: 3, ladderSamples: 200}
	if cfg.trace {
		cfg.setups = 1
	}
	rep, err := benchmark(context.Background(), cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	if err := rep.writeJSON(stdout, defs); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !rep.correct {
		return 1
	}
	return 0
}

// runConfig is one run of one workload.
type runConfig struct {
	spec          workloadSpec
	seed          int64
	seconds       float64
	trace         bool
	dir           string
	setups        int
	ladderSamples int
}

// report is a finished run: what the JSON line and the exit code need.
type report struct {
	correct   bool
	failures  []string
	attempted int
	failed    int
	metrics   map[string]float64
}

func (r *report) writeJSON(w io.Writer, defs []metricDef) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, make(map[string]value, len(defs))}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		out.Metrics[d.name] = value{v, d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// printer writes the human-readable "metric" lines.
type printer struct{ w io.Writer }

func (p printer) metric(name string, v float64, unit string, n int) {
	fmt.Fprintf(p.w, "metric %-34s %14.4f %-6s n=%d\n", name, v, unit, n)
}

// unsupported marks a latency percentile that fewer than minBeyond of
// the n samples lie beyond.
func (p printer) unsupported(name string, n int) {
	fmt.Fprintf(p.w, "metric %-34s %14s %-6s n=%d\n", name, "unsupported", "us", n)
}

// benchmark sets the deployment up, runs the timed phase, checks the
// outputs and computes the run's metrics.
func benchmark(ctx context.Context, cfg runConfig, w io.Writer) (*report, error) {
	p := printer{w}
	spec := cfg.spec
	conf, err := json.Marshal(spec.deployConfig(cfg.setups, cfg.seconds))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%g trace=%t\n# why: %s\n# config %s\n",
		spec.name, cfg.seed, cfg.seconds, cfg.trace, spec.why, conf)
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	dataDir, err := os.MkdirTemp(cfg.dir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dataDir)

	// Set up several times and keep the last deployment: setup_s is the
	// median, so one slow set-up does not move it.
	var setupTimes []float64
	var d *deployment
	for i := 0; i < cfg.setups; i++ {
		if d != nil {
			d.tearDown()
			runtime.GC()
		}
		t0 := time.Now()
		if d, err = setUp(ctx, dataDir, spec, cfg.seed); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer d.tearDown()

	chk := &checker{}
	clients := d.newClients(cfg.seed, chk)
	before := d.snapshot()
	roundLen := time.Duration(cfg.seconds * float64(time.Second) / phaseRounds)
	start := time.Now()
	mon := startMonitor(start, phaseRounds, roundLen)
	phase := runPhase(ctx, clients, start, phaseRounds, roundLen, cfg.trace)
	mon.Stop()
	after := d.snapshot()
	completed := phase.completed()
	if completed == 0 {
		return nil, errors.New("no op completed in the timed phase")
	}

	// Key placement: every tablet server must have served ops.
	ops := serverOps(before.reg, after.reg)
	var total, busiest int64
	for _, id := range before.liveServers {
		if ops[id] == 0 {
			chk.fail("key placement: tablet server %s served no ops", id)
		}
		total += ops[id]
		busiest = max(busiest, ops[id])
	}
	shareMax := ratio(float64(busiest), float64(total)/float64(len(before.liveServers)))

	if err := d.checkAccounts(ctx, chk, "before failover"); err != nil {
		return nil, err
	}
	var lad *ladder
	if cfg.trace {
		version := func(row int64) int64 {
			for _, cl := range clients {
				if v, ok := cl.written[row]; ok {
					return v
				}
			}
			return 0
		}
		if lad, err = runLadder(ctx, d, chk, cfg.seed, cfg.ladderSamples, start, version); err != nil {
			return nil, err
		}
	}
	var recovery time.Duration
	var recoveredBytes int64
	if spec.failover {
		if recovery, recoveredBytes, err = d.failover(ctx, cfg.seed); err != nil {
			return nil, err
		}
	}
	when := "end of run"
	if spec.failover {
		when = "after failover"
	}
	if err := d.checkWrites(ctx, clients, chk, when); err != nil {
		return nil, err
	}
	if err := d.checkAccounts(ctx, chk, when); err != nil {
		return nil, err
	}

	rep := &report{attempted: phase.attempted, failed: phase.failed, metrics: make(map[string]float64)}
	nFail, failures := chk.failures()
	rep.correct, rep.failures = nFail == 0, failures
	for _, f := range failures {
		fmt.Fprintf(w, "check failed: %s\n", f)
	}
	if nFail > len(failures) {
		fmt.Fprintf(w, "check failed: %d more\n", nFail-len(failures))
	}

	// latency prints an op's p-quantile when the sample supports it. A
	// failed op counts as missing any latency limit: it is reported at the
	// length of the run.
	runUS := phase.elapsed.Seconds() * 1e6
	latency := func(name string, op opKind, q float64) {
		n := phase.lat[op].seen
		if v, ok := phase.lat[op].quantile(q); ok {
			p.metric(name, math.Min(v, runUS), "us", n)
		} else {
			p.unsupported(name, n)
		}
	}
	if !cfg.trace {
		// Rates, the median latency, CPU per op and the heap peak are
		// medians over the phase's rounds: a burst of contention on a
		// shared machine moves one round, not the result. Modelled disk
		// time is charged in bursts by background compaction, so it is a
		// total over the whole phase.
		var thr, cpu, peak, p50 []float64
		p50ok := true
		for r, rd := range phase.rounds {
			thr = append(thr, float64(rd.completed)/roundLen.Seconds())
			cpu = append(cpu, ratio(float64((mon.cpu[r+1]-mon.cpu[r]).Microseconds()), float64(rd.completed)))
			peak = append(peak, float64(mon.peak[r])/(1<<20))
			v, ok := rd.lat[spec.primary].quantile(0.50)
			p50 = append(p50, math.Min(v, runUS))
			p50ok = p50ok && ok
		}
		fmt.Fprintf(w, "# per round: throughput_ops_s %.1f primary_p50_us %.1f cpu_us_per_op %.1f heap_peak_mb %.1f\n", thr, p50, cpu, peak)
		m := rep.metrics
		m["setup_s"] = median(setupTimes)
		m["throughput_ops_s"] = median(thr)
		m["disk_model_us_per_op"] = float64((after.clock - before.clock).Microseconds()) / float64(completed)
		m["cpu_us_per_op"] = median(cpu)
		m["heap_peak_mb"] = median(peak)

		p.metric("setup_s", m["setup_s"], "s", len(setupTimes))
		p.metric("throughput_ops_s", m["throughput_ops_s"], "1/s", completed)
		// An unsupported median stays unset, so the JSON line is refused
		// rather than reporting it.
		if n := phase.lat[spec.primary].seen; p50ok {
			m["primary_p50_us"] = median(p50)
			p.metric("primary_p50_us", m["primary_p50_us"], "us", n)
		} else {
			p.unsupported("primary_p50_us", n)
		}
		for op := opKind(0); op < numOps; op++ {
			if phase.lat[op].seen > 0 {
				latency(fmt.Sprintf("%s_p50_us", op), op, 0.50)
				latency(fmt.Sprintf("%s_p99_us", op), op, 0.99)
			}
		}
		p.metric("error_ratio", ratio(float64(phase.failed), float64(phase.attempted)), "ratio", phase.attempted)
		if spec.failover {
			p.metric("recovery_s", recovery.Seconds(), "s", 1)
		}
		p.metric("disk_model_us_per_op", m["disk_model_us_per_op"], "us", completed)
		p.metric("cpu_us_per_op", m["cpu_us_per_op"], "us", len(cpu))
		p.metric("heap_peak_mb", m["heap_peak_mb"], "MB", len(peak))
		return rep, nil
	}

	m := perLayerMetrics(before, after, phase, d.spec)
	m["cluster.server_share_max"] = shareMax
	if spec.failover {
		m["core.recovery_mb_per_s"] = float64(recoveredBytes) / 1e6 / recovery.Seconds()
	} else {
		m["core.recovery_mb_per_s"] = 0
	}
	for k, v := range ladderMetrics(lad.samples) {
		m[k] = v
	}
	untraced := ratio(float64(phase.opsByMode[0]), phase.modeTime[0].Seconds())
	traced := ratio(float64(phase.opsByMode[1]), phase.modeTime[1].Seconds())
	m["trace.overhead_pct"] = ratio(untraced-traced, untraced) * 100
	rep.metrics = m
	for _, def := range perLayer {
		n := completed
		if len(lad.samples) > 0 {
			for _, st := range selfTimes {
				if st.metric == def.name {
					n = len(lad.samples[st.rung])
				}
			}
		}
		p.metric(def.name, m[def.name], def.unit, n)
	}
	// Every client op of a traced window was recorded (that is the cost
	// trace.overhead_pct measures); the file keeps the ladder's spans and
	// the first maxPhaseSpans of the clients'.
	spans := append(phase.spans[:min(len(phase.spans), maxPhaseSpans)], lad.spans...)
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	path := filepath.Join(cfg.dir, fmt.Sprintf("spans-%s.jsonl", spec.name))
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "# %d of %d spans written to %s\n", len(spans), len(phase.spans)+len(lad.spans), path)
	return rep, nil
}

const maxPhaseSpans = 10000

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// perLayerMetrics computes the counter-based per-layer metrics over the
// timed phase.
func perLayerMetrics(before, after counterSnap, phase *phaseResult, spec workloadSpec) map[string]float64 {
	ops := float64(phase.completed())
	user := float64(phase.userBytes)
	b, a := before.reg, after.reg
	op := func(name string) map[string]string { return map[string]string{"op": name} }
	m := make(map[string]float64)
	m["cluster.retries_per_kop"] = ratio(valueDelta(b, a, "logbase_retry_attempts_total", nil)*1000, ops)
	commits := float64(after.txCommits - before.txCommits)
	aborts := float64(after.txAborts - before.txAborts)
	restarts := float64(after.txRetry - before.txRetry)
	m["txn.abort_ratio"] = ratio(aborts+restarts, commits+aborts+restarts)
	m["txn.restarts_per_tx"] = ratio(restarts, commits)
	m["core.put_busy_us"] = meanDeltaUS(b, a, "logbase_op_duration_seconds", op("put"))
	m["core.read_busy_us"] = meanDeltaUS(b, a, "logbase_op_duration_seconds", op("read"))
	m["core.log_reads_per_read"] = ratio(float64(after.logReads-before.logReads), float64(after.reads-before.reads))
	m["core.index_bytes_per_row"] = ratio(float64(after.indexBytes), float64(spec.rows+spec.accounts))
	scans, _ := histDelta(b, a, "logbase_op_duration_seconds", op("scan"))
	clustered := valueDelta(b, a, "logbase_clustered_scans_total", nil)
	m["core.clustered_scan_share"] = ratio(clustered, float64(scans))
	m["core.segments_per_clustered_scan"] = ratio(valueDelta(b, a, "logbase_clustered_segments_total", nil), clustered)
	m["core.overlay_rows_per_scan"] = ratio(valueDelta(b, a, "logbase_clustered_overlay_rows_total", nil), float64(scans))
	m["core.sorted_fraction"] = ratio(float64(after.sortedBytes), float64(after.logBytes))
	m["core.compaction_runs"] = float64(after.compactions - before.compactions)
	_, compactNS := histDelta(b, a, "logbase_op_duration_seconds", op("compact"))
	m["core.compaction_busy_s"] = float64(compactNS) / 1e9
	m["cache.hit_ratio"] = ratio(float64(after.cacheHits-before.cacheHits),
		float64(after.cacheHits-before.cacheHits+after.cacheMisses-before.cacheMisses))
	m["wal.append_us"] = meanDeltaUS(b, a, "logbase_wal_append_seconds", nil)
	m["wal.flush_us"] = meanDeltaUS(b, a, "logbase_wal_flush_seconds", nil)
	m["wal.batch_wait_us"] = m["wal.append_us"] - m["wal.flush_us"]
	flushes, records := histDelta(b, a, "logbase_wal_flush_records", nil)
	m["wal.records_per_flush"] = ratio(float64(records), float64(flushes))
	m["wal.bytes_per_user_byte"] = ratio(float64(after.logBytes-before.logBytes), user)
	m["dfs.bytes_stored_per_user_byte"] = ratio(float64(after.disk.BytesWritten-before.disk.BytesWritten), user)
	m["simdisk.seeks_per_op"] = float64(after.disk.Seeks-before.disk.Seeks) / ops
	m["simdisk.reads_per_op"] = float64(after.disk.ReadOps-before.disk.ReadOps) / ops
	m["simdisk.writes_per_op"] = float64(after.disk.WriteOps-before.disk.WriteOps) / ops
	m["simdisk.read_bytes_per_op"] = float64(after.disk.BytesRead-before.disk.BytesRead) / ops
	m["simdisk.write_bytes_per_op"] = float64(after.disk.BytesWritten-before.disk.BytesWritten) / ops
	m["runtime.allocs_per_op"] = float64(after.allocs-before.allocs) / ops
	m["runtime.alloc_bytes_per_op"] = float64(after.allocBytes-before.allocBytes) / ops
	m["runtime.gc_cpu_fraction"] = ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU)
	return m
}
