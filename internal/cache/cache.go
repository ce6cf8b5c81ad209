// Package cache implements LogBase's read buffer (paper §3.6.2): an
// optional, size-bounded cache of recently written and recently read
// record versions. Unlike HBase's memtable, the read buffer never holds
// the only copy of data — evictions are free, which is exactly why the
// log-only design has no flush bottleneck.
//
// Representation: one map from key to *entry. The replacement policy
// keeps its bookkeeping inside the entries themselves (an intrusive
// doubly-linked list for LRU and FIFO, a ring slot and reference bit
// for CLOCK), so a hit costs one map lookup plus, under LRU, one
// pointer splice — no second map and no list-element allocation.
//
// The replacement strategy is an abstracted interface (the paper calls
// this out explicitly) with LRU as the default; CLOCK and FIFO are
// provided as alternatives and exercised by the cache-policy ablation
// bench.
//
// Values are stored and returned by reference, never copied: a caller
// must not modify a slice after handing it to Put, nor a slice returned
// by Get. Put replaces an entry's slice; it never writes into one.
package cache

import "sync"

// entry is one resident key with the replacement policy's intrusive
// state.
type entry struct {
	key   string
	value []byte

	// prev/next link the entry into an LRU or FIFO list.
	prev, next *entry
	// slot is the entry's CLOCK ring index; ref its second-chance bit.
	slot int
	ref  bool
}

// Policy decides which resident entry to evict. Implementations are
// driven under the cache's lock and keep their state inside the
// entries, so the interface can only be implemented in this package.
type Policy interface {
	// Touch notes that e was accessed (hit or replace).
	Touch(e *entry)
	// Add notes that e became resident.
	Add(e *entry)
	// Evict picks and unlinks the victim. It is only called when at
	// least one entry is resident.
	Evict() *entry
	// Remove notes that e was explicitly invalidated.
	Remove(e *entry)
	// Name identifies the policy in bench output.
	Name() string
}

// Cache is a byte-budgeted record cache. Safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	items    map[string]*entry
	policy   Policy

	hits   int64
	misses int64
}

// Stats reports hit/miss counters.
type Stats struct {
	Hits, Misses int64
	Used         int64
	Items        int
}

// New creates a cache holding at most capacity bytes of values. A nil
// policy means LRU. Capacity <= 0 disables the cache (every Get
// misses, Put is a no-op) — this is the "read buffer is optional"
// configuration.
func New(capacity int64, policy Policy) *Cache {
	if policy == nil {
		policy = NewLRU()
	}
	return &Cache{capacity: capacity, items: make(map[string]*entry), policy: policy}
}

// Get returns the cached value and whether it was present. The value is
// shared with the cache: read it, never write it.
func (c *Cache) Get(key string) ([]byte, bool) {
	if c.capacity <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hitLocked(c.items[key])
}

// GetBytes is Get keyed by a byte slice; the lookup does not allocate a
// string for the key.
func (c *Cache) GetBytes(key []byte) ([]byte, bool) {
	if c.capacity <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hitLocked(c.items[string(key)])
}

func (c *Cache) hitLocked(e *entry) ([]byte, bool) {
	if e == nil {
		c.misses++
		return nil, false
	}
	c.hits++
	c.policy.Touch(e)
	return e.value, true
}

// Put inserts or replaces a value, evicting as needed. Values larger
// than the whole capacity are not cached. The cache keeps value itself:
// the caller must not modify it afterwards.
func (c *Cache) Put(key string, value []byte) {
	if c.capacity <= 0 || int64(len(value)) > c.capacity {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		c.used += int64(len(value)) - int64(len(e.value))
		e.value = value
		c.policy.Touch(e)
	} else {
		e = &entry{key: key, value: value}
		c.items[key] = e
		c.used += int64(len(value))
		c.policy.Add(e)
	}
	for c.used > c.capacity && len(c.items) > 0 {
		victim := c.policy.Evict()
		c.used -= int64(len(victim.value))
		delete(c.items, victim.key)
	}
}

// Invalidate removes a key (e.g. on delete).
func (c *Cache) Invalidate(key string) {
	if c.capacity <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		c.used -= int64(len(e.value))
		delete(c.items, key)
		c.policy.Remove(e)
	}
}

// Stats returns a snapshot of counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, Misses: c.misses, Used: c.used, Items: len(c.items)}
}

// list is an intrusive circular doubly-linked list of entries: root.next
// is the front (newest), root.prev the back (oldest). It supplies the
// Add, Evict and Remove of both list policies.
type list struct{ root entry }

func (l *list) init() { l.root.next, l.root.prev = &l.root, &l.root }

// Add links e at the front.
func (l *list) Add(e *entry) {
	e.prev, e.next = &l.root, l.root.next
	e.prev.next, e.next.prev = e, e
}

// Remove unlinks e.
func (l *list) Remove(e *entry) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

// Evict unlinks and returns the back entry.
func (l *list) Evict() *entry {
	e := l.root.prev
	l.Remove(e)
	return e
}

// lru is the default policy: discard the least recently used entry.
type lru struct{ list }

// NewLRU returns the default least-recently-used policy.
func NewLRU() Policy {
	p := &lru{}
	p.init()
	return p
}

func (p *lru) Name() string { return "lru" }

func (p *lru) Touch(e *entry) {
	if p.root.next != e {
		p.Remove(e)
		p.Add(e)
	}
}

// fifo evicts in insertion order regardless of access.
type fifo struct{ list }

// NewFIFO returns a first-in-first-out policy.
func NewFIFO() Policy {
	p := &fifo{}
	p.init()
	return p
}

func (p *fifo) Name() string { return "fifo" }
func (p *fifo) Touch(*entry) {}

// clock is the classic second-chance approximation of LRU. Each
// resident entry owns one ring slot; freed slots are reused.
type clock struct {
	ring []*entry // nil = free slot
	free []int
	hand int
}

// NewClock returns a CLOCK (second chance) policy.
func NewClock() Policy { return &clock{} }

func (p *clock) Name() string   { return "clock" }
func (p *clock) Touch(e *entry) { e.ref = true }

func (p *clock) Add(e *entry) {
	e.ref = true
	if n := len(p.free); n > 0 {
		e.slot = p.free[n-1]
		p.free = p.free[:n-1]
		p.ring[e.slot] = e
		return
	}
	e.slot = len(p.ring)
	p.ring = append(p.ring, e)
}

func (p *clock) Evict() *entry {
	for {
		i := p.hand % len(p.ring)
		p.hand = i + 1
		e := p.ring[i]
		if e == nil {
			continue
		}
		if e.ref {
			e.ref = false
			continue
		}
		p.Remove(e)
		return e
	}
}

func (p *clock) Remove(e *entry) {
	p.ring[e.slot] = nil
	p.free = append(p.free, e.slot)
}
