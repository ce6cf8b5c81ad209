package cluster

// Tests for the routing epoch's lock-free fast path: every topology
// change publishes a new epoch, a failover withdraws the published
// epoch for its whole duration, and a warm client's cache-hit Get
// stays within its allocation budget.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/fault"
)

// TestEpochBlocksForWholeFailover parks a failover inside its log
// recovery (a DFS read fault point that blocks) and checks that, with
// failMu held, Epoch waits instead of returning the pre-failover epoch,
// then returns the bumped epoch once the failover ends.
func TestEpochBlocksForWholeFailover(t *testing.T) {
	faults := fault.New(1)
	c, err := New(t.TempDir(), Config{
		NumServers: 3,
		Tables:     []TableSpec{{Name: "users", Groups: []string{"profile"}}},
		Server:     core.Config{SegmentSize: 1 << 20},
		DFS:        dfs.Config{BlockSize: 1 << 16, Faults: faults},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := c.NewClient()
	for i := 0; i < 64; i++ {
		if err := cl.Put("users", "profile", []byte{byte(i * 4), 'k'}, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	before := c.Epoch()

	reached, release := make(chan struct{}), make(chan struct{})
	unblock := sync.OnceFunc(func() { close(release) })
	defer unblock() // a failed check must not leave the failover parked
	var once sync.Once
	block := func() { once.Do(func() { close(reached); <-release }) }
	for i := 0; i < 3; i++ {
		faults.Arm(fmt.Sprintf("dfs.dn%d.read", i), fault.Policy{OnFire: block})
	}
	killed := make(chan error, 1)
	go func() { killed <- c.KillServer(c.LiveServers()[0]) }()
	select {
	case <-reached:
	case err := <-killed:
		t.Fatalf("failover finished without reading the dead log: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("failover never reached its log recovery")
	}
	if c.failMu.TryRLock() {
		c.failMu.RUnlock()
		t.Fatal("failover is recovering without holding failMu")
	}

	got := make(chan int64, 1)
	go func() { got <- c.Epoch() }()
	select {
	case e := <-got:
		t.Fatalf("Epoch returned %d mid-failover (pre-failover epoch %d)", e, before)
	case <-time.After(50 * time.Millisecond):
	}
	for i := 0; i < 3; i++ {
		faults.Disarm(fmt.Sprintf("dfs.dn%d.read", i))
	}
	unblock()
	if err := <-killed; err != nil {
		t.Fatalf("KillServer: %v", err)
	}
	if e := <-got; e <= before {
		t.Fatalf("Epoch after failover = %d, want > %d", e, before)
	}
	if e := c.Epoch(); e <= before {
		t.Fatalf("fast-path Epoch after failover = %d, want > %d", e, before)
	}
}

// TestEveryTopologyChangePublishesEpoch: a split, a live move and a
// replica promotion each change what the fast path returns.
func TestEveryTopologyChangePublishesEpoch(t *testing.T) {
	c := newElasticCluster(t, 2, 2)
	cl := c.NewClient()
	for i := 0; i < 100; i++ {
		if err := cl.Put("users", "profile", hotKey(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	e0 := c.Epoch()
	tab, err := cl.TabletFor("users", hotKey(0))
	if err != nil {
		t.Fatal(err)
	}
	left, _, err := c.SplitTablet(tab)
	if err != nil {
		t.Fatalf("SplitTablet: %v", err)
	}
	e1 := c.Epoch()
	if e1 == e0 {
		t.Fatalf("split left Epoch at %d", e0)
	}
	owner := c.Assignments()[left]
	var dest string
	for _, id := range c.LiveServers() {
		if id != owner {
			dest = id
		}
	}
	if err := c.MoveTablet(left, dest); err != nil {
		t.Fatalf("MoveTablet: %v", err)
	}
	if e2 := c.Epoch(); e2 == e1 {
		t.Fatalf("move left Epoch at %d", e1)
	}

	r := newReplicatedCluster(t, 2, 1)
	rcl := r.NewClient()
	if err := rcl.Put("t", "g", []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	e3 := r.Epoch()
	if err := r.KillServer("ts00"); err != nil {
		t.Fatalf("KillServer: %v", err)
	}
	promoted := false
	for _, o := range r.Assignments() {
		promoted = promoted || o == "ts00.r0"
	}
	if !promoted {
		t.Fatal("failover scattered instead of promoting the replica")
	}
	if e4 := r.Epoch(); e4 == e3 {
		t.Fatalf("replica promotion left Epoch at %d", e3)
	}
}

// TestClientCacheHitGetAllocs: with routing warm and the row in the
// owner's read buffer, a Get allocates nothing — no breaker target
// string, no read-buffer key, no value copy.
func TestClientCacheHitGetAllocs(t *testing.T) {
	c, err := New(t.TempDir(), Config{
		NumServers: 2,
		Tables:     []TableSpec{{Name: "users", Groups: []string{"profile"}}},
		Server:     core.Config{SegmentSize: 1 << 20, ReadCacheBytes: 1 << 20},
		DFS:        dfs.Config{BlockSize: 1 << 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := c.NewClient()
	key := []byte("user01")
	if err := cl.Put("users", "profile", key, make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get("users", "profile", key); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := cl.Get("users", "profile", key); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("cache-hit Client.Get allocates %.1f objects, want 0", n)
	}
}
