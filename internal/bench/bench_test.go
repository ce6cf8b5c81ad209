package bench

import (
	"strconv"
	"testing"
)

// tinyScale keeps the full registry smoke test fast.
func tinyScale() Scale {
	return Scale{Rows: 800, Ops: 400, ValueSize: 128, Nodes: []int{2, 3}, Workers: 2}
}

func TestRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if ids[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		ids[e.ID] = true
	}
	// Every paper figure 6..22 must be present.
	for f := 6; f <= 22; f++ {
		id := "fig" + pad2(f)
		if !ids[id] {
			t.Errorf("missing experiment %s", id)
		}
	}
	if _, ok := Find("fig06"); !ok {
		t.Error("Find(fig06) failed")
	}
	if _, ok := Find("nope"); ok {
		t.Error("Find(nope) succeeded")
	}
}

func pad2(n int) string {
	s := strconv.Itoa(n)
	if len(s) == 1 {
		return "0" + s
	}
	return s
}

// TestAllExperimentsRun executes the complete registry at tiny scale:
// every figure must produce a non-empty table without error. Shape
// flags are logged (asserted individually below for the robust ones).
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry run skipped in -short mode")
	}
	s := tinyScale()
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tab, err := e.Run(s)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tab.Rows) == 0 {
				t.Fatalf("%s produced no rows", e.ID)
			}
			t.Logf("%s shape held: %v\n%s", e.ID, tab.Hold, tab.Render())
		})
	}
}

// The deterministic (virtual-disk-time) shapes must hold even at tiny
// scale; wall-clock shapes are allowed to wobble in CI.
func TestDeterministicShapesHold(t *testing.T) {
	if testing.Short() {
		t.Skip("shape checks skipped in -short mode")
	}
	s := tinyScale()
	for _, id := range []string{"fig06", "fig07", "fig10", "abl-log-per-group"} {
		e, ok := Find(id)
		if !ok {
			t.Fatalf("experiment %s missing", id)
		}
		tab, err := e.Run(s)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !tab.Hold {
			t.Errorf("%s: paper shape did not hold:\n%s", id, tab.Render())
		}
	}
}

func TestTableRender(t *testing.T) {
	tab := Table{
		ID: "x", Title: "demo",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "22"}, {"333", "4"}},
		Shape:  "demo shape", Hold: true,
	}
	out := tab.Render()
	if out == "" || len(out) < 20 {
		t.Errorf("Render output too small: %q", out)
	}
}

// TestElasticBalancerNoLostRows runs the balancer-on hot-range phase
// and checks every loaded row survives the splits and migrations.
func TestElasticBalancerNoLostRows(t *testing.T) {
	if err := elasticSmoke(500, 300, 6); err != nil {
		t.Fatal(err)
	}
}

// TestKeyOps pins the CI perf gate's measurement harness: every gated
// op reports, with deterministic positive modelled disk time for the
// I/O-bound ops.
func TestKeyOps(t *testing.T) {
	if testing.Short() {
		t.Skip("keyops skipped in -short mode")
	}
	ops, err := KeyOps(Scale{Rows: 400, Ops: 300, ValueSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"put": true, "writebatch": true, "fullscan": true, "query": true,
		"scan-pushdown": true, "scan-clientfilter": true, "hotrange": true,
		"scan-clustered": true, "scan-index": true, "scan-clustered-limit": true, "autocompact": true,
		"cdc-catchup": true, "cdc-tail": true, "cdc-writes-base": true,
		"get-hit": true, "get-miss": true,
	}
	for _, op := range ops {
		delete(want, op.Name)
		if op.Ops <= 0 {
			t.Errorf("%s measured %d ops", op.Name, op.Ops)
		}
		if op.DiskUSPerOp < 0 {
			t.Errorf("%s negative disk time", op.Name)
		}
	}
	if len(want) != 0 {
		t.Errorf("missing key ops: %v", want)
	}
	for _, name := range []string{"put", "writebatch", "get-miss"} {
		for _, op := range ops {
			if op.Name == name && op.DiskUSPerOp == 0 {
				t.Errorf("%s reported zero modelled disk time", name)
			}
		}
	}
	for _, op := range ops {
		if op.Name == "get-hit" && op.DiskUSPerOp != 0 {
			t.Errorf("get-hit reported %.2f µs/op modelled disk, want 0 (served from the read buffer)", op.DiskUSPerOp)
		}
	}
}
