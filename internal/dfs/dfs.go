// Package dfs implements an HDFS-like distributed file system used by
// LogBase as its shared log and index repository (paper §3.4).
//
// Files are append-only sequences of fixed-size blocks. Every block is
// synchronously replicated to n datanodes before a write returns
// (mirroring HDFS's write pipeline, "equivalent to RAID-1" in the
// paper's terms), with rack-aware placement: the second replica lands on
// a different rack from the first, the third on the same rack as the
// second. Datanodes can be killed to exercise failure handling; the
// namenode re-replicates under-replicated blocks from surviving
// replicas.
//
// The whole cluster runs in one process. Datanodes persist blocks on a
// simdisk.Disk so that I/O costs (seek vs sequential transfer) follow
// the disk model used throughout the reproduction.
package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/fault"
	"repro/internal/simdisk"
)

// Config controls cluster geometry and replication.
type Config struct {
	// NumDataNodes is the number of datanodes to start.
	NumDataNodes int
	// Racks is the number of racks datanodes are spread over
	// (round-robin). Zero means 2.
	Racks int
	// ReplicationFactor is the number of synchronous replicas per block.
	// Zero means 3 (the HDFS and paper default). Clamped to the number
	// of datanodes.
	ReplicationFactor int
	// BlockSize is the maximum block size in bytes. Zero means 64 MB
	// (the paper/HDFS default); simulations typically use much less.
	BlockSize int64
	// DiskModel is applied to every datanode's disk.
	DiskModel simdisk.Model
	// Clock, when non-nil, is shared by all datanode disks so one
	// virtual-time reading covers the cluster.
	Clock *simdisk.Clock
	// Faults, when non-nil, is consulted at the block I/O points
	// ("dfs.dn<i>.read", "dfs.dn<i>.write") and threaded into every
	// datanode disk ("disk.dn<i>.read"/".write"). Nil injects nothing.
	Faults *fault.Registry
}

func (c Config) withDefaults() Config {
	if c.Racks <= 0 {
		c.Racks = 2
	}
	if c.ReplicationFactor <= 0 {
		c.ReplicationFactor = 3
	}
	if c.ReplicationFactor > c.NumDataNodes {
		c.ReplicationFactor = c.NumDataNodes
	}
	if c.BlockSize <= 0 {
		c.BlockSize = 64 << 20
	}
	return c
}

// ErrNotFound is returned when a path does not exist in the namespace.
var ErrNotFound = errors.New("dfs: file not found")

// ErrExists is returned by Create when the path already exists.
var ErrExists = errors.New("dfs: file already exists")

// ErrNoDataNodes is returned when no datanode is alive to host a block.
var ErrNoDataNodes = errors.New("dfs: no live datanodes")

type blockID uint64

// blockMeta records where a block's replicas live and how full it is.
type blockMeta struct {
	id       blockID
	size     int64
	replicas []int // datanode ids
	// wmu serialises bulk copies of this block (re-replication) against
	// in-flight appends: without it a new replica could be installed
	// missing bytes an append wrote between the copy and the install.
	// Lock ordering: wmu before d.mu, never the reverse.
	wmu sync.Mutex
}

// fileMeta is the namenode's record of one file.
type fileMeta struct {
	blocks []*blockMeta
}

func (fm *fileMeta) size() int64 {
	var n int64
	for _, b := range fm.blocks {
		n += b.size
	}
	return n
}

// DFS is a single-process distributed file system: one namenode plus a
// set of datanodes. It is safe for concurrent use.
type DFS struct {
	cfg Config

	mu        sync.Mutex
	files     map[string]*fileMeta
	nextBlock blockID
	nodes     []*DataNode
	nextPlace int // round-robin cursor for first-replica placement
}

// New starts a DFS with cfg.NumDataNodes datanodes whose disks live
// under dir.
func New(dir string, cfg Config) (*DFS, error) {
	cfg = cfg.withDefaults()
	if cfg.NumDataNodes <= 0 {
		return nil, errors.New("dfs: need at least one datanode")
	}
	d := &DFS{cfg: cfg, files: make(map[string]*fileMeta)}
	for i := 0; i < cfg.NumDataNodes; i++ {
		disk, err := simdisk.New(fmt.Sprintf("%s/dn%02d", dir, i), cfg.DiskModel, cfg.Clock)
		if err != nil {
			return nil, err
		}
		disk.SetFaults(cfg.Faults, fmt.Sprintf("disk.dn%d", i))
		d.nodes = append(d.nodes, newDataNode(i, i%cfg.Racks, disk, cfg.Faults))
	}
	return d, nil
}

// Config returns the (defaulted) configuration the cluster runs with.
func (d *DFS) Config() Config { return d.cfg }

// DataNode returns datanode i.
func (d *DFS) DataNode(i int) *DataNode { return d.nodes[i] }

// NumDataNodes returns the cluster size.
func (d *DFS) NumDataNodes() int { return len(d.nodes) }

// placeReplicas chooses datanodes for a new block, rack-aware: first
// replica round-robin over live nodes, second on a different rack,
// remaining on the second's rack when possible, falling back to any
// live node.
func (d *DFS) placeReplicas() ([]int, error) {
	live := d.liveNodesLocked()
	if len(live) == 0 {
		return nil, ErrNoDataNodes
	}
	want := d.cfg.ReplicationFactor
	if want > len(live) {
		want = len(live)
	}
	first := live[d.nextPlace%len(live)]
	d.nextPlace++
	chosen := []int{first.id}
	used := map[int]bool{first.id: true}

	pick := func(pred func(*DataNode) bool) bool {
		for _, n := range live {
			if !used[n.id] && pred(n) {
				chosen = append(chosen, n.id)
				used[n.id] = true
				return true
			}
		}
		return false
	}
	if len(chosen) < want {
		// Second replica: different rack if one exists.
		if !pick(func(n *DataNode) bool { return n.rack != first.rack }) {
			pick(func(*DataNode) bool { return true })
		}
	}
	for len(chosen) < want {
		secondRack := d.nodes[chosen[len(chosen)-1]].rack
		if !pick(func(n *DataNode) bool { return n.rack == secondRack }) && !pick(func(*DataNode) bool { return true }) {
			break
		}
	}
	return chosen, nil
}

func (d *DFS) liveNodesLocked() []*DataNode {
	var live []*DataNode
	for _, n := range d.nodes {
		if n.Alive() {
			live = append(live, n)
		}
	}
	return live
}

// Create creates a new empty file and returns a writer positioned at
// offset zero. The file becomes visible immediately.
func (d *DFS) Create(path string) (*Writer, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.files[path]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExists, path)
	}
	d.files[path] = &fileMeta{}
	return &Writer{d: d, path: path}, nil
}

// OpenAppend opens an existing file for appending.
func (d *DFS) OpenAppend(path string) (*Writer, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	fm, ok := d.files[path]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	return &Writer{d: d, path: path, off: fm.size()}, nil
}

// Open returns a reader for the file.
func (d *DFS) Open(path string) (*Reader, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.files[path]; !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	return &Reader{d: d, path: path}, nil
}

// Exists reports whether path is in the namespace.
func (d *DFS) Exists(path string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.files[path]
	return ok
}

// Size returns the logical size of the file.
func (d *DFS) Size(path string) (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	fm, ok := d.files[path]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	return fm.size(), nil
}

// Delete removes the file and its blocks from all replicas.
func (d *DFS) Delete(path string) error {
	d.mu.Lock()
	fm, ok := d.files[path]
	if !ok {
		d.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	delete(d.files, path)
	blocks := fm.blocks
	nodes := d.nodes
	d.mu.Unlock()

	for _, b := range blocks {
		for _, nid := range b.replicas {
			nodes[nid].deleteBlock(b.id) // best effort; dead nodes ignore
		}
	}
	return nil
}

// Rename atomically renames a file within the namespace.
func (d *DFS) Rename(from, to string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	fm, ok := d.files[from]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, from)
	}
	if _, ok := d.files[to]; ok {
		return fmt.Errorf("%w: %s", ErrExists, to)
	}
	delete(d.files, from)
	d.files[to] = fm
	return nil
}

// List returns all paths with the given prefix, sorted.
func (d *DFS) List(prefix string) []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []string
	for p := range d.files {
		if len(p) >= len(prefix) && p[:len(prefix)] == prefix {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// KillDataNode marks a datanode dead. Its replicas become unreadable
// until RecoverReplication copies them elsewhere.
func (d *DFS) KillDataNode(id int) { d.nodes[id].setAlive(false) }

// RestartDataNode brings a datanode back with its disk contents intact.
func (d *DFS) RestartDataNode(id int) { d.nodes[id].setAlive(true) }

// UnderReplicated returns the number of blocks with fewer than the
// configured number of live replicas.
func (d *DFS) UnderReplicated() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, fm := range d.files {
		for _, b := range fm.blocks {
			if d.liveReplicasLocked(b) < min(d.cfg.ReplicationFactor, len(d.liveNodesLocked())) {
				n++
			}
		}
	}
	return n
}

func (d *DFS) liveReplicasLocked(b *blockMeta) int {
	n := 0
	for _, nid := range b.replicas {
		if d.nodes[nid].Alive() {
			n++
		}
	}
	return n
}

// RecoverReplication copies every under-replicated block from a live
// replica to a live node that does not yet hold it. It returns the
// number of new replicas created. In a real HDFS this runs continuously
// off heartbeats; the simulation invokes it explicitly (or from the
// cluster master's failure handler).
func (d *DFS) RecoverReplication() (int, error) {
	d.mu.Lock()
	type job struct {
		b    *blockMeta
		src  int
		dsts []int
	}
	var jobs []job
	for _, fm := range d.files {
		for _, b := range fm.blocks {
			want := min(d.cfg.ReplicationFactor, len(d.liveNodesLocked()))
			live := d.liveReplicasLocked(b)
			if live == 0 || live >= want {
				continue
			}
			src := -1
			holds := map[int]bool{}
			for _, nid := range b.replicas {
				holds[nid] = true
				if d.nodes[nid].Alive() && src < 0 {
					src = nid
				}
			}
			var dsts []int
			for _, n := range d.liveNodesLocked() {
				if len(dsts) >= want-live {
					break
				}
				if !holds[n.id] {
					dsts = append(dsts, n.id)
				}
			}
			jobs = append(jobs, job{b: b, src: src, dsts: dsts})
		}
	}
	d.mu.Unlock()

	created := 0
	for _, j := range jobs {
		n, err := d.replicateBlock(j.b, j.src, j.dsts)
		created += n
		if err != nil {
			return created, err
		}
	}
	return created, nil
}

// replicateBlock copies block b from src to each dst and installs the
// new replicas. It holds the block's write mutex for the whole
// copy-and-install so an append racing the copy either lands before it
// (and is included in the copied bytes) or after the install (and is
// pipelined to the new replica like any other) — never in between.
func (d *DFS) replicateBlock(b *blockMeta, src int, dsts []int) (int, error) {
	b.wmu.Lock()
	defer b.wmu.Unlock()
	d.mu.Lock()
	size := b.size
	d.mu.Unlock()
	data, err := d.nodes[src].readBlock(b.id, 0, int(size))
	if err != nil {
		return 0, fmt.Errorf("dfs: re-replicate block %d: %w", b.id, err)
	}
	created := 0
	for _, dst := range dsts {
		if err := d.nodes[dst].writeBlock(b.id, 0, data); err != nil {
			return created, fmt.Errorf("dfs: re-replicate block %d to dn%d: %w", b.id, dst, err)
		}
		d.mu.Lock()
		b.replicas = append(b.replicas, dst)
		d.mu.Unlock()
		created++
	}
	return created, nil
}

// appendLocked-free helper: append p to the file, splitting across
// blocks, replicating each fragment synchronously.
func (d *DFS) appendAt(path string, p []byte) (int64, error) {
	d.mu.Lock()
	fm, ok := d.files[path]
	if !ok {
		d.mu.Unlock()
		return 0, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	start := fm.size()
	d.mu.Unlock()

	off := start
	for len(p) > 0 {
		d.mu.Lock()
		var last *blockMeta
		if n := len(fm.blocks); n > 0 {
			last = fm.blocks[n-1]
		}
		if last == nil || last.size >= d.cfg.BlockSize {
			replicas, err := d.placeReplicas()
			if err != nil {
				d.mu.Unlock()
				return 0, err
			}
			d.nextBlock++
			last = &blockMeta{id: d.nextBlock, replicas: replicas}
			fm.blocks = append(fm.blocks, last)
		}
		room := d.cfg.BlockSize - last.size
		n := int64(len(p))
		if n > room {
			n = room
		}
		frag := p[:n]
		blockOff := last.size
		id := last.id
		d.mu.Unlock()

		// Serialise against a re-replication copying this block; the
		// replica set is re-read under the block mutex so a replica the
		// copier just installed receives this write too.
		last.wmu.Lock()
		d.mu.Lock()
		replicas := append([]int(nil), last.replicas...)
		d.mu.Unlock()

		// Synchronous pipeline: every live replica must accept the write
		// before it returns, but the replicas run concurrently (HDFS
		// streams through the pipeline; the client does not pay 3x wall
		// time). A dead replica is dropped from the block's replica set
		// — it is stale from now on (HDFS's generation-stamp rule);
		// restarting the node does not resurrect it, only re-replication
		// does.
		var stale []int
		var live []*DataNode
		for _, nid := range replicas {
			node := d.nodes[nid]
			if !node.Alive() {
				stale = append(stale, nid)
				continue
			}
			live = append(live, node)
		}
		if len(live) == 0 {
			last.wmu.Unlock()
			return 0, ErrNoDataNodes
		}
		errs := make([]error, len(live))
		var wg sync.WaitGroup
		for i, node := range live {
			wg.Add(1)
			go func(i int, node *DataNode) {
				defer wg.Done()
				if err := node.writeBlock(id, blockOff, frag); err != nil {
					errs[i] = fmt.Errorf("dfs: write block %d on dn%d: %w", id, node.id, err)
				}
			}(i, node)
		}
		wg.Wait()
		// A replica that died mid-write is dropped from the pipeline
		// like one found dead before it (generation-stamp rule): the
		// write still succeeds as long as one replica accepted it. Any
		// other per-replica error fails the append.
		ok := 0
		for i, err := range errs {
			switch {
			case err == nil:
				ok++
			case errors.Is(err, errDeadNode):
				stale = append(stale, live[i].id)
			default:
				last.wmu.Unlock()
				return 0, err
			}
		}
		if ok == 0 {
			last.wmu.Unlock()
			return 0, ErrNoDataNodes
		}
		d.mu.Lock()
		if len(stale) > 0 {
			kept := last.replicas[:0]
			for _, nid := range last.replicas {
				drop := false
				for _, s := range stale {
					if nid == s {
						drop = true
						break
					}
				}
				if !drop {
					kept = append(kept, nid)
				}
			}
			last.replicas = kept
		}
		last.size += n
		d.mu.Unlock()
		last.wmu.Unlock()
		p = p[n:]
		off += n
	}
	return start, nil
}

// readAt reads into p starting at off, returning the number of bytes
// read. Short reads at end-of-file return io.EOF. The metadata of the
// blocks [off, off+len(p)) touches is value-snapshotted under the
// namenode lock: appendAt mutates each block's size and replica set in
// place, and a reader racing a concurrent append must see a consistent
// point-in-time view (reads target committed offsets, so acting on the
// snapshot is safe even as the file keeps growing). Replica reads land
// directly in p; a failed replica's partial bytes are overwritten by
// the next replica's read of the same range.
func (d *DFS) readAt(path string, p []byte, off int64) (int, error) {
	type blockSnap struct {
		id   blockID
		size int64
		reps [2]int // replicas[reps[0]:reps[1]]
	}
	var (
		blockStack [4]blockSnap
		repStack   [12]int
	)
	blocks, replicas := blockStack[:0], repStack[:0]

	d.mu.Lock()
	fm, ok := d.files[path]
	if !ok {
		d.mu.Unlock()
		return 0, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	size := fm.size()
	blockSize := d.cfg.BlockSize
	first := off / blockSize
	if off < size && len(p) > 0 {
		last := off + int64(len(p)) - 1
		if last >= size {
			last = size - 1
		}
		for bi := first; bi <= last/blockSize && bi < int64(len(fm.blocks)); bi++ {
			b := fm.blocks[bi]
			lo := len(replicas)
			replicas = append(replicas, b.replicas...)
			blocks = append(blocks, blockSnap{id: b.id, size: b.size, reps: [2]int{lo, len(replicas)}})
		}
	}
	d.mu.Unlock()

	if off >= size {
		return 0, io.EOF
	}
	total := 0
	for total < len(p) && off < size {
		bi := off/blockSize - first
		if bi >= int64(len(blocks)) {
			break
		}
		b := blocks[bi]
		blockOff := off % blockSize
		n := int64(len(p) - total)
		if rem := b.size - blockOff; n > rem {
			n = rem
		}
		if n <= 0 {
			break
		}
		dst := p[total : total+int(n)]
		var (
			m   int
			err error
		)
		read := false
		for _, nid := range replicas[b.reps[0]:b.reps[1]] {
			node := d.nodes[nid]
			if !node.Alive() {
				continue
			}
			m, err = node.readBlockInto(b.id, blockOff, dst)
			if err == nil {
				read = true
				break
			}
		}
		if !read {
			if err == nil {
				err = ErrNoDataNodes
			}
			return total, fmt.Errorf("dfs: read block %d: %w", b.id, err)
		}
		total += m
		off += int64(m)
	}
	if total < len(p) {
		return total, io.EOF
	}
	return total, nil
}

// Writer appends to one file. Not safe for concurrent use (one writer
// per file, matching HDFS's single-writer lease model).
type Writer struct {
	d    *DFS
	path string
	off  int64
}

// Write appends p and returns its length.
func (w *Writer) Write(p []byte) (int, error) {
	if _, err := w.d.appendAt(w.path, p); err != nil {
		return 0, err
	}
	w.off += int64(len(p))
	return len(p), nil
}

// Offset returns the file offset at which the next Write will land.
func (w *Writer) Offset() int64 { return w.off }

// Sync is a no-op placeholder: replication is already synchronous, so
// data is durable (in the simulated sense) when Write returns.
func (w *Writer) Sync() error { return nil }

// Close releases the writer.
func (w *Writer) Close() error { return nil }

// Reader reads a file at arbitrary offsets. Safe for concurrent use.
type Reader struct {
	d    *DFS
	path string
}

// ReadAt implements io.ReaderAt over the replicated file.
func (r *Reader) ReadAt(p []byte, off int64) (int, error) {
	return r.d.readAt(r.path, p, off)
}

// Size returns the file's current logical size.
func (r *Reader) Size() (int64, error) { return r.d.Size(r.path) }

// Close releases the reader.
func (r *Reader) Close() error { return nil }

// Truncate cuts the file back to size bytes, discarding the suffix on
// every live replica. This is the block-recovery step a writer performs
// after a torn append: the unacknowledged tail is removed so the file
// ends at the last durable record boundary (HDFS does the equivalent
// during lease/pipeline recovery).
func (d *DFS) Truncate(path string, size int64) error {
	d.mu.Lock()
	fm, ok := d.files[path]
	if !ok {
		d.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	if size < 0 || size > fm.size() {
		d.mu.Unlock()
		return fmt.Errorf("dfs: truncate %s to %d: out of range", path, size)
	}
	type cut struct {
		id       blockID
		size     int64
		replicas []int
		drop     bool
	}
	var cuts []cut
	var off int64
	var kept []*blockMeta
	for _, b := range fm.blocks {
		end := off + b.size
		switch {
		case end <= size: // untouched
			kept = append(kept, b)
		case off >= size: // entirely beyond the cut: drop
			cuts = append(cuts, cut{id: b.id, replicas: b.replicas, drop: true})
		default: // straddles the cut: shrink
			b.size = size - off
			kept = append(kept, b)
			cuts = append(cuts, cut{id: b.id, size: b.size, replicas: b.replicas})
		}
		off = end
	}
	fm.blocks = kept
	nodes := d.nodes
	d.mu.Unlock()

	for _, c := range cuts {
		for _, nid := range c.replicas {
			if !nodes[nid].Alive() {
				continue
			}
			if c.drop {
				nodes[nid].deleteBlock(c.id)
			} else if err := nodes[nid].truncateBlock(c.id, c.size); err != nil {
				return fmt.Errorf("dfs: truncate %s block %d on dn%d: %w", path, c.id, nid, err)
			}
		}
	}
	return nil
}

// BlockInfo is the scrub-facing view of one block of a file.
type BlockInfo struct {
	// Index is the block's position in the file.
	Index int
	// Offset is the file offset at which the block starts.
	Offset int64
	// Size is the number of committed bytes in the block.
	Size int64
	// Replicas lists the datanodes holding a current copy.
	Replicas []int
}

// Blocks returns the block layout of a file — which datanodes hold each
// block — for replica-aware verification (scrubbing).
func (d *DFS) Blocks(path string) ([]BlockInfo, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	fm, ok := d.files[path]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	out := make([]BlockInfo, len(fm.blocks))
	var off int64
	for i, b := range fm.blocks {
		out[i] = BlockInfo{
			Index:    i,
			Offset:   off,
			Size:     b.size,
			Replicas: append([]int(nil), b.replicas...),
		}
		off += b.size
	}
	return out, nil
}

// ReadBlockReplica reads the full content of block blockIdx of path as
// stored on datanode nid, bypassing the usual any-replica fallback so a
// scrubber can inspect each copy individually.
func (d *DFS) ReadBlockReplica(path string, blockIdx, nid int) ([]byte, error) {
	d.mu.Lock()
	b, err := d.blockAtLocked(path, blockIdx)
	if err != nil {
		d.mu.Unlock()
		return nil, err
	}
	id, size := b.id, b.size
	holds := false
	for _, r := range b.replicas {
		if r == nid {
			holds = true
			break
		}
	}
	d.mu.Unlock()
	if !holds {
		return nil, fmt.Errorf("dfs: dn%d holds no replica of %s block %d", nid, path, blockIdx)
	}
	return d.nodes[nid].readBlock(id, 0, int(size))
}

// RepairBlockReplica overwrites datanode to's copy of block blockIdx
// with the bytes stored on datanode from — the re-replication step a
// scrubber takes after identifying a corrupt replica.
func (d *DFS) RepairBlockReplica(path string, blockIdx, from, to int) error {
	d.mu.Lock()
	b, err := d.blockAtLocked(path, blockIdx)
	if err != nil {
		d.mu.Unlock()
		return err
	}
	id, size := b.id, b.size
	d.mu.Unlock()
	data, err := d.nodes[from].readBlock(id, 0, int(size))
	if err != nil {
		return fmt.Errorf("dfs: repair %s block %d: read dn%d: %w", path, blockIdx, from, err)
	}
	if err := d.nodes[to].writeBlock(id, 0, data); err != nil {
		return fmt.Errorf("dfs: repair %s block %d: write dn%d: %w", path, blockIdx, to, err)
	}
	return nil
}

// CorruptBlockReplica flips one bit of datanode nid's copy of block
// blockIdx at byte byteOff — persistent, on-disk corruption, the thing
// scrubbing exists to find. Fault-injection surface for tests.
func (d *DFS) CorruptBlockReplica(path string, blockIdx, nid int, byteOff int64) error {
	d.mu.Lock()
	b, err := d.blockAtLocked(path, blockIdx)
	if err != nil {
		d.mu.Unlock()
		return err
	}
	id, size := b.id, b.size
	d.mu.Unlock()
	if byteOff < 0 || byteOff >= size {
		return fmt.Errorf("dfs: corrupt %s block %d: offset %d out of range [0,%d)", path, blockIdx, byteOff, size)
	}
	data, err := d.nodes[nid].readBlock(id, byteOff, 1)
	if err != nil {
		return err
	}
	data[0] ^= 0x01
	return d.nodes[nid].writeBlock(id, byteOff, data)
}

// blockAtLocked returns block blockIdx of path; d.mu must be held.
func (d *DFS) blockAtLocked(path string, blockIdx int) (*blockMeta, error) {
	fm, ok := d.files[path]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	if blockIdx < 0 || blockIdx >= len(fm.blocks) {
		return nil, fmt.Errorf("dfs: %s has no block %d", path, blockIdx)
	}
	return fm.blocks[blockIdx], nil
}

// ReplicasAgree reports whether all live replicas of every block of
// path hold byte-identical content (a cheap whole-file integrity probe
// used by tests; Scrub does the CRC-level verification).
func (d *DFS) ReplicasAgree(path string) (bool, error) {
	blocks, err := d.Blocks(path)
	if err != nil {
		return false, err
	}
	for _, b := range blocks {
		var ref []byte
		have := false
		for _, nid := range b.Replicas {
			if !d.nodes[nid].Alive() {
				continue
			}
			data, err := d.ReadBlockReplica(path, b.Index, nid)
			if err != nil {
				return false, err
			}
			if !have {
				ref, have = data, true
			} else if !bytes.Equal(ref, data) {
				return false, nil
			}
		}
	}
	return true, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
