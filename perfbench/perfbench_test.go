package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// seq records the latencies n, n-1, ..., 1.
func seq(n int) *opLatencies {
	var l opLatencies
	for i := n; i > 0; i-- {
		l.add(float64(i), nil)
	}
	return &l
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false}, // only 9 samples above rank 990
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
		{1, 0.50, 1, false},
	} {
		got, ok := pool(seq(c.n)).quantile(c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("quantile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	if _, ok := pool().quantile(0.5); ok {
		t.Error("empty sample supports a median")
	}
}

func TestFailedOpsMissEveryLatencyLimit(t *testing.T) {
	var l opLatencies
	for i := 0; i < 1000; i++ {
		l.add(1, nil)
	}
	for i := 0; i < 11; i++ {
		l.add(1, os.ErrDeadlineExceeded)
	}
	p := pool(&l)
	if p.failed != 11 || p.seen != 1011 {
		t.Fatalf("failed=%d seen=%d, want 11 and 1011", p.failed, p.seen)
	}
	if v, ok := p.quantile(0.99); !ok || !math.IsInf(v, 1) {
		t.Errorf("p99 with 11 failed ops of 1011 = %v, %v; want +Inf, true", v, ok)
	}
	if v, _ := p.quantile(0.5); v != 1 {
		t.Errorf("p50 = %v, want 1", v)
	}
}

// TestReservoirKeepsAWeightedUniformSample checks that past
// reservoirSize a client keeps a bounded uniform sample, and that
// pooling weighs each part by how many latencies it stands for.
func TestReservoirKeepsAWeightedUniformSample(t *testing.T) {
	big := seq(10 * reservoirSize) // latencies 1..10R
	if len(big.us) != reservoirSize || big.seen != 10*reservoirSize {
		t.Fatalf("kept %d of %d", len(big.us), big.seen)
	}
	// R more latencies of 0 sort first, so the pooled median (rank 5.5R of
	// 11R) is big's latency of rank 4.5R.
	var zeros opLatencies
	for i := 0; i < reservoirSize; i++ {
		zeros.add(0, nil)
	}
	p := pool(big, &zeros)
	if p.seen != 11*reservoirSize {
		t.Fatalf("pooled seen = %d", p.seen)
	}
	got, ok := p.quantile(0.5)
	want := 0.5*11*reservoirSize - reservoirSize // rank among big's latencies
	if !ok || math.Abs(got-want)/want > 0.03 {
		t.Errorf("pooled median = %v, %v; want about %v", got, ok, want)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of 3 values = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 4 values = %v", m)
	}
}

func TestLadderSelfTimeSubtractsTheRungBelow(t *testing.T) {
	got := ladderMetrics(map[string][]float64{
		"logbase.put": {100, 120, 110},
		"cluster.put": {95, 90, 85},
		"core.put":    {80, 70, 60, 90}, // median 75
		"wal.put":     {50},
		"dfs.put":     {20},
		"simdisk.put": {5, 7},
		"txn.tx":      {300},
		"logbase.tx":  {310},
	})
	want := map[string]float64{
		"logbase.put.self_us": 110 - 90,
		"cluster.put.self_us": 90 - 75,
		"core.put.self_us":    75 - 50,
		"wal.put.self_us":     50 - 20,
		"dfs.put.self_us":     20 - 6,
		"simdisk.put.self_us": 6,
		"logbase.tx.self_us":  10,
		"txn.tx.total_us":     300,
		// No read samples: the workload issues no reads.
		"logbase.read.self_us": 0,
		"simdisk.read.self_us": 0,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	if len(got) != len(selfTimes) {
		t.Errorf("ladderMetrics returned %d metrics, want %d", len(got), len(selfTimes))
	}
}

func TestCounterDeltasFromRegistrySnapshot(t *testing.T) {
	reg := obs.NewRegistry()
	h := func(server, op string) *obs.Histogram {
		return reg.Histogram("logbase_op_duration_seconds", "", obs.Labels{"server": server, "op": op})
	}
	retries := reg.Counter("logbase_retry_attempts_total", "", nil)
	h("ts00", "put").Observe(time.Millisecond)
	retries.Add(3)
	before := reg.Snapshot()

	h("ts00", "put").Observe(2 * time.Millisecond)
	h("ts00", "put").Observe(4 * time.Millisecond)
	h("ts01", "put").Observe(6 * time.Millisecond)
	h("ts01", "read").Observe(time.Microsecond)
	h("ts01", "compact").Observe(time.Second)
	retries.Add(2)
	after := reg.Snapshot()

	if n, sum := histDelta(before, after, "logbase_op_duration_seconds", map[string]string{"op": "put"}); n != 3 || sum != int64(12*time.Millisecond) {
		t.Errorf("put delta = %d ops, %d ns; want 3, %d", n, sum, 12*time.Millisecond)
	}
	if us := meanDeltaUS(before, after, "logbase_op_duration_seconds", map[string]string{"op": "put", "server": "ts00"}); us != 3000 {
		t.Errorf("ts00 mean put = %vus, want 3000", us)
	}
	if us := meanDeltaUS(before, after, "logbase_op_duration_seconds", map[string]string{"op": "delete"}); us != 0 {
		t.Errorf("mean of an op never seen = %v, want 0", us)
	}
	if d := valueDelta(before, after, "logbase_retry_attempts_total", nil); d != 2 {
		t.Errorf("retry delta = %v, want 2", d)
	}
	ops := serverOps(before, after)
	if ops["ts00"] != 2 || ops["ts01"] != 2 {
		t.Errorf("server ops = %v, want ts00:2 ts01:2 (compaction excluded)", ops)
	}
}

func TestParseLabels(t *testing.T) {
	got := parseLabels(`{op="put",server="ts\"00"}`)
	if len(got) != 2 || got["op"] != "put" || got["server"] != `ts"00` {
		t.Errorf("parseLabels = %v", got)
	}
	if got := parseLabels(""); len(got) != 0 {
		t.Errorf("parseLabels of no labels = %v", got)
	}
}

func TestValuesRoundTrip(t *testing.T) {
	v := newValues(7)
	val := v.value(42, 3)
	if len(val) != valueSize {
		t.Fatalf("value is %d bytes", len(val))
	}
	if got, err := v.check(42, val); err != nil || got != 3 {
		t.Errorf("check = %d, %v; want 3, nil", got, err)
	}
	if _, err := v.check(43, val); err == nil {
		t.Error("a value of row 42 passes as row 43's")
	}
	bad := append([]byte(nil), val...)
	bad[valueSize-1]++
	if _, err := v.check(42, bad); err == nil {
		t.Error("a corrupt value passes the check")
	}
	if n, ok := leadingNum(val); !ok || n != float64(rowNum(42)) {
		t.Errorf("leadingNum = %v, %v", n, ok)
	}
}

// TestKeysSpreadOverEveryTablet guards the key-placement property: the
// hash prefix spreads keys over all SplitUniform tablets.
func TestKeysSpreadOverEveryTablet(t *testing.T) {
	var perThird [numServers]int
	for i := int64(0); i < 3000; i++ {
		perThird[int(rowKey(i)[0])*numServers/256]++
	}
	for s, n := range perThird {
		if n < 800 {
			t.Errorf("tablet %d holds %d of 3000 keys", s, n)
		}
	}
}

// TestSmokeEveryWorkload runs each workload at a tiny scale, untraced
// and traced, and requires its correctness checks to pass.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds clusters")
	}
	for _, spec := range workloads {
		spec := spec
		spec.rows = 3000
		spec.accounts = min(spec.accounts, 50)
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			rep, err := benchmark(context.Background(), runConfig{
				spec: spec, seed: 5, seconds: 0.3, trace: trace, dir: t.TempDir(), setups: 1, ladderSamples: 5,
			}, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", spec.name, trace, err, out.String())
			}
			if !rep.correct || rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d %v\n%s",
					spec.name, trace, rep.correct, rep.attempted, rep.failed, rep.failures, out.String())
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			for _, d := range defs {
				if _, ok := rep.metrics[d.name]; !ok && !strings.HasPrefix(d.name, "primary_") {
					t.Errorf("%s trace=%v: metric %s missing", spec.name, trace, d.name)
				}
			}
		}
	}
}

func TestUnknownWorkloadPrintsNoResult(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"}, &out, &errOut); code == 0 {
		t.Errorf("exit code 0 for an unknown workload")
	}
	if out.Len() != 0 {
		t.Errorf("printed %q", out.String())
	}
}

// TestBenchmarkJSONMatchesTheProgram keeps BENCHMARK.json's workload
// and metric lists in step with what the program reports.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %s is unknown", w.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, program %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}
