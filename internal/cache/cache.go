// Package cache implements the buffer cache that sits between the
// application's array references and the disk subsystem. Following
// the paper's setup, data is cached at stripe-unit granularity: an
// array reference causes a disk access unless its stripe unit is
// already cached, which is what makes the evaluated workloads issue
// one request per stripe unit per sweep.
package cache

// Key identifies one stripe unit of one array file: the array's
// (non-negative) index in its program and the unit's index in the
// file.
type Key struct {
	Array int
	Unit  int64
}

// LRU is a fixed-capacity least-recently-used cache of stripe units.
// Its entries live in one slice, linked in recency order by index and
// found through one unit-keyed map per array. The slice grows as
// units arrive, up to the capacity; a miss on a full cache reuses the
// least recently used entry. The zero value is not usable; use New.
type LRU struct {
	capacity int
	// slot[a][u] is the entry of unit u of array a.
	slot    []map[int64]int
	entries []entry
	// head and tail index the most and least recently used entries.
	head, tail int
	hits       int64
	misses     int64
}

// entry is one cached unit; prev points toward the head, next toward
// the tail, and -1 ends the list.
type entry struct {
	key        Key
	prev, next int
}

// New returns an LRU holding at most capUnits stripe units. A
// capacity of zero disables caching (every touch misses). Memory grows
// with the units touched, not with the capacity.
func New(capUnits int) *LRU {
	return &LRU{capacity: max(capUnits, 0), head: -1, tail: -1}
}

// Touch records an access to the given unit. It reports whether the
// unit was present (a cache hit); on a miss the unit is inserted,
// evicting the least recently used unit if the cache is full.
func (c *LRU) Touch(k Key) bool {
	if i, ok := c.lookup(k); ok {
		c.hits++
		if i != c.head {
			c.unlink(i)
			c.pushFront(i)
		}
		return true
	}
	c.misses++
	if c.capacity == 0 {
		return false
	}
	i := len(c.entries)
	if i < c.capacity {
		c.entries = append(c.entries, entry{key: k})
	} else {
		i = c.tail
		c.unlink(i)
		old := c.entries[i].key
		delete(c.slot[old.Array], old.Unit)
		c.entries[i].key = k
	}
	for len(c.slot) <= k.Array {
		c.slot = append(c.slot, make(map[int64]int))
	}
	c.slot[k.Array][k.Unit] = i
	c.pushFront(i)
	return false
}

func (c *LRU) unlink(i int) {
	e := &c.entries[i]
	if e.prev >= 0 {
		c.entries[e.prev].next = e.next
	} else {
		c.head = e.next
	}
	if e.next >= 0 {
		c.entries[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
}

func (c *LRU) pushFront(i int) {
	c.entries[i].prev, c.entries[i].next = -1, c.head
	if c.head >= 0 {
		c.entries[c.head].prev = i
	} else {
		c.tail = i
	}
	c.head = i
}

func (c *LRU) lookup(k Key) (int, bool) {
	if k.Array >= len(c.slot) {
		return 0, false
	}
	i, ok := c.slot[k.Array][k.Unit]
	return i, ok
}

// Contains reports whether the unit is cached, without touching it.
func (c *LRU) Contains(k Key) bool {
	_, ok := c.lookup(k)
	return ok
}

// Len returns the number of cached units.
func (c *LRU) Len() int { return len(c.entries) }

// Cap returns the capacity in units.
func (c *LRU) Cap() int { return c.capacity }

// Stats returns the cumulative hit and miss counts.
func (c *LRU) Stats() (hits, misses int64) { return c.hits, c.misses }
