package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/fault"
)

func newFaultDFS(t *testing.T, nodes int, reg *fault.Registry) *DFS {
	t.Helper()
	fs, err := New(t.TempDir(), Config{NumDataNodes: nodes, BlockSize: 1 << 20, Faults: reg})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return fs
}

// Re-replication of an under-replicated block racing a concurrent
// append to the same (still-filling) block: every byte acknowledged by
// a Write must be readable afterwards, and the cluster must converge
// to full replication with all replicas byte-identical.
func TestRecoverReplicationRacesConcurrentAppend(t *testing.T) {
	fs := newFaultDFS(t, 4, nil)
	w, err := fs.Create("f")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	chunk := bytes.Repeat([]byte("x"), 512)
	if _, err := w.Write(chunk); err != nil {
		t.Fatalf("seed write: %v", err)
	}
	blocks, err := fs.Blocks("f")
	if err != nil {
		t.Fatalf("Blocks: %v", err)
	}
	fs.KillDataNode(blocks[0].Replicas[0]) // block 0 becomes under-replicated

	var wrote int
	var wg sync.WaitGroup
	wg.Add(2)
	werrCh := make(chan error, 1)
	go func() {
		defer wg.Done()
		for i := 0; i < 64; i++ {
			if _, err := w.Write(chunk); err != nil {
				werrCh <- fmt.Errorf("append %d: %w", i, err)
				return
			}
			wrote++
		}
		werrCh <- nil
	}()
	rerrCh := make(chan error, 1)
	go func() {
		defer wg.Done()
		for i := 0; i < 16; i++ {
			if _, err := fs.RecoverReplication(); err != nil {
				rerrCh <- err
				return
			}
		}
		rerrCh <- nil
	}()
	wg.Wait()
	if err := <-werrCh; err != nil {
		t.Fatal(err)
	}
	if err := <-rerrCh; err != nil {
		t.Fatalf("RecoverReplication racing append: %v", err)
	}

	// Converge (the racing recovery may have copied a partial block; a
	// quiesced pass must finish the job) and verify every replica of
	// every block agrees with the committed contents.
	if _, err := fs.RecoverReplication(); err != nil {
		t.Fatalf("final RecoverReplication: %v", err)
	}
	if n := fs.UnderReplicated(); n != 0 {
		t.Fatalf("UnderReplicated = %d after recovery", n)
	}
	size, _ := fs.Size("f")
	want := int64((1 + wrote) * len(chunk))
	if size != want {
		t.Fatalf("file size %d, want %d", size, want)
	}
	r, _ := fs.Open("f")
	got := make([]byte, size)
	if _, err := r.ReadAt(got, 0); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	for i, b := range got {
		if b != 'x' {
			t.Fatalf("byte %d = %q, want 'x'", i, b)
		}
	}
	ok, err := fs.ReplicasAgree("f")
	if err != nil {
		t.Fatalf("ReplicasAgree: %v", err)
	}
	if !ok {
		t.Fatal("replicas diverge after re-replication raced an append")
	}
}

// ReplicationFactor temporarily unsatisfiable: with all but one node
// dead, writes still succeed on the survivor; when nodes return,
// re-replication restores the configured factor.
func TestReplicationFactorUnsatisfiableThenRecovers(t *testing.T) {
	fs := newFaultDFS(t, 3, nil)
	w, err := fs.Create("f")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := w.Write([]byte("before")); err != nil {
		t.Fatalf("write before failures: %v", err)
	}
	fs.KillDataNode(0)
	fs.KillDataNode(1)
	if _, err := w.Write([]byte("-during")); err != nil {
		t.Fatalf("write with one survivor: %v", err)
	}
	// Force a block placed while only one node is live.
	w2, err := fs.Create("g")
	if err != nil {
		t.Fatalf("Create g: %v", err)
	}
	if _, err := w2.Write([]byte("solo")); err != nil {
		t.Fatalf("write new file with one survivor: %v", err)
	}
	blocks, _ := fs.Blocks("g")
	if len(blocks[0].Replicas) != 1 {
		t.Fatalf("solo block has %d replicas, want 1", len(blocks[0].Replicas))
	}

	// All nodes dead: writes must fail with ErrNoDataNodes, not hang.
	fs.KillDataNode(2)
	if _, err := w.Write([]byte("x")); !errors.Is(err, ErrNoDataNodes) {
		t.Fatalf("write with no nodes = %v, want ErrNoDataNodes", err)
	}

	// Nodes return; replication converges back to the factor.
	fs.RestartDataNode(0)
	fs.RestartDataNode(1)
	fs.RestartDataNode(2)
	if n := fs.UnderReplicated(); n == 0 {
		t.Fatal("expected under-replicated blocks before recovery")
	}
	if _, err := fs.RecoverReplication(); err != nil {
		t.Fatalf("RecoverReplication: %v", err)
	}
	if n := fs.UnderReplicated(); n != 0 {
		t.Fatalf("UnderReplicated = %d after nodes returned", n)
	}
	for _, path := range []string{"f", "g"} {
		for _, b := range mustBlocks(t, fs, path) {
			if len(b.Replicas) < 3 {
				t.Fatalf("%s block %d has %d replicas, want 3", path, b.Index, len(b.Replicas))
			}
		}
		ok, err := fs.ReplicasAgree(path)
		if err != nil || !ok {
			t.Fatalf("%s replicas agree = %v, %v", path, ok, err)
		}
	}
	r, _ := fs.Open("f")
	buf := make([]byte, 13)
	if _, err := r.ReadAt(buf, 0); err != nil {
		t.Fatalf("read back f: %v", err)
	}
	if string(buf) != "before-during" {
		t.Fatalf("f content %q", buf)
	}
}

func mustBlocks(t *testing.T, fs *DFS, path string) []BlockInfo {
	t.Helper()
	blocks, err := fs.Blocks(path)
	if err != nil {
		t.Fatalf("Blocks(%s): %v", path, err)
	}
	return blocks
}

// A datanode kill *schedule*: the node dies mid-workload at an armed
// write point; appends keep succeeding on the remaining replicas and
// the dead node is dropped from the affected block's replica set.
func TestDataNodeKillScheduleDuringAppends(t *testing.T) {
	reg := fault.New(11)
	fs := newFaultDFS(t, 3, reg)
	var killOnce sync.Once
	reg.Arm("dfs.dn1.write", fault.Policy{After: 5, Times: 1, OnFire: func() {
		killOnce.Do(func() { fs.KillDataNode(1) })
	}})
	w, err := fs.Create("f")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i := 0; i < 20; i++ {
		if _, err := w.Write(bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
			t.Fatalf("write %d (after scheduled kill): %v", i, err)
		}
	}
	if fs.DataNode(1).Alive() {
		t.Fatal("kill schedule never fired")
	}
	r, _ := fs.Open("f")
	buf := make([]byte, 20*64)
	if _, err := r.ReadAt(buf, 0); err != nil {
		t.Fatalf("read back: %v", err)
	}
	for i := 0; i < 20; i++ {
		if buf[i*64] != byte(i) {
			t.Fatalf("chunk %d corrupted", i)
		}
	}
}

// Truncate cuts across block boundaries and drops whole trailing
// blocks on every live replica.
func TestTruncateAcrossBlocks(t *testing.T) {
	fs, err := New(t.TempDir(), Config{NumDataNodes: 3, BlockSize: 100})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	w, _ := fs.Create("f")
	data := make([]byte, 350)
	for i := range data {
		data[i] = byte(i)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := fs.Truncate("f", 150); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	if size, _ := fs.Size("f"); size != 150 {
		t.Fatalf("size after truncate = %d, want 150", size)
	}
	blocks, _ := fs.Blocks("f")
	if len(blocks) != 2 || blocks[1].Size != 50 {
		t.Fatalf("blocks after truncate: %+v", blocks)
	}
	r, _ := fs.Open("f")
	got := make([]byte, 150)
	if _, err := r.ReadAt(got, 0); err != nil {
		t.Fatalf("read back: %v", err)
	}
	for i := range got {
		if got[i] != byte(i) {
			t.Fatalf("byte %d = %d, want %d", i, got[i], byte(i))
		}
	}
	// Appends continue at the cut.
	w2, _ := fs.OpenAppend("f")
	if _, err := w2.Write([]byte{0xFF}); err != nil {
		t.Fatalf("append after truncate: %v", err)
	}
	one := make([]byte, 1)
	if _, err := r.ReadAt(one, 150); err != nil || one[0] != 0xFF {
		t.Fatalf("read appended byte: %v %x", err, one)
	}
	if err := fs.Truncate("f", 1000); err == nil {
		t.Fatal("truncate beyond EOF succeeded")
	}
}

// CorruptBlockReplica + ReadBlockReplica + RepairBlockReplica: the
// primitive scrub cycle at the DFS layer.
func TestCorruptAndRepairBlockReplica(t *testing.T) {
	fs := newFaultDFS(t, 3, nil)
	w, _ := fs.Create("f")
	if _, err := w.Write(bytes.Repeat([]byte("a"), 256)); err != nil {
		t.Fatalf("write: %v", err)
	}
	blocks := mustBlocks(t, fs, "f")
	victim, healthy := blocks[0].Replicas[0], blocks[0].Replicas[1]
	if err := fs.CorruptBlockReplica("f", 0, victim, 10); err != nil {
		t.Fatalf("CorruptBlockReplica: %v", err)
	}
	if ok, _ := fs.ReplicasAgree("f"); ok {
		t.Fatal("replicas agree despite corruption")
	}
	bad, err := fs.ReadBlockReplica("f", 0, victim)
	if err != nil {
		t.Fatalf("ReadBlockReplica: %v", err)
	}
	if bad[10] == 'a' {
		t.Fatal("corruption did not land")
	}
	if err := fs.RepairBlockReplica("f", 0, healthy, victim); err != nil {
		t.Fatalf("RepairBlockReplica: %v", err)
	}
	if ok, _ := fs.ReplicasAgree("f"); !ok {
		t.Fatal("replicas still diverge after repair")
	}
	if _, err := fs.ReadBlockReplica("f", 0, 99); err == nil {
		t.Fatal("ReadBlockReplica accepted bogus node")
	}
}

// TestDisarmedFaultPointsDoNotAllocate backs the package doc's "a
// disarmed point costs one atomic load" claim on the hottest points:
// with a registry wired in but nothing armed, a replica block read or
// write (dfs.dn<i>.* and disk.dn<i>.*) allocates nothing, and a DFS
// read lands in the caller's buffer without copying block metadata to
// the heap.
func TestDisarmedFaultPointsDoNotAllocate(t *testing.T) {
	reg := fault.New(1)
	fs := newFaultDFS(t, 3, reg)
	w, err := fs.Create("f")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	data := bytes.Repeat([]byte("0123456789abcdef"), 1<<17) // two 1 MB blocks
	if _, err := w.Write(data); err != nil {
		t.Fatalf("Write: %v", err)
	}
	fs.mu.Lock()
	b0 := fs.files["f"].blocks[0]
	node, id := fs.DataNode(b0.replicas[0]), b0.id
	fs.mu.Unlock()
	buf := make([]byte, 4096)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := node.readBlockInto(id, 512, buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("disarmed replica read: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := node.writeBlock(id, 512, buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("disarmed replica write: %v allocs/op, want 0", n)
	}
	r, err := fs.Open("f")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	span := make([]byte, 64<<10)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := r.ReadAt(span, 1<<20-(32<<10)); err != nil { // crosses the block boundary
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("disarmed DFS read: %v allocs/op, want 0", n)
	}
	if got := reg.Injected(); got != 0 {
		t.Fatalf("disarmed registry injected %d faults", got)
	}
}
