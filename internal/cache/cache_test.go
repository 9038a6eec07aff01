package cache

import (
	"container/list"
	"math/rand"
	"runtime"
	"testing"
)

func k(array int, u int64) Key { return Key{Array: array, Unit: u} }

func TestBasicHitMiss(t *testing.T) {
	c := New(2)
	if c.Touch(k(0, 0)) {
		t.Error("first touch hit")
	}
	if !c.Touch(k(0, 0)) {
		t.Error("second touch missed")
	}
	if c.Touch(k(0, 1)) {
		t.Error("new unit hit")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d", c.Len())
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 2 {
		t.Errorf("stats = %d/%d", hits, misses)
	}
}

func TestEvictionOrder(t *testing.T) {
	c := New(2)
	c.Touch(k(0, 0))
	c.Touch(k(0, 1))
	c.Touch(k(0, 0)) // 0 now MRU, 1 LRU
	c.Touch(k(0, 2)) // evicts 1
	if !c.Contains(k(0, 0)) {
		t.Error("unit 0 evicted")
	}
	if c.Contains(k(0, 1)) {
		t.Error("unit 1 survived")
	}
	if !c.Contains(k(0, 2)) {
		t.Error("unit 2 missing")
	}
}

func TestZeroCapacity(t *testing.T) {
	c := New(0)
	for i := 0; i < 5; i++ {
		if c.Touch(k(0, 0)) {
			t.Fatal("zero-capacity cache hit")
		}
	}
	if c.Len() != 0 {
		t.Errorf("Len = %d", c.Len())
	}
	c = New(-3)
	if c.Cap() != 0 {
		t.Error("negative capacity not clamped")
	}
}

func TestDistinctFilesDistinctKeys(t *testing.T) {
	c := New(4)
	c.Touch(k(0, 0))
	if c.Touch(k(1, 0)) {
		t.Error("unit 0 of file b hit on file a's entry")
	}
}

func TestSequentialSweepMissesEveryUnitWhenLarger(t *testing.T) {
	// The workload property Table 2 relies on: an array much larger
	// than the cache misses on every unit in every sweep.
	c := New(8)
	const units = 100
	for sweep := 0; sweep < 3; sweep++ {
		for u := int64(0); u < units; u++ {
			if c.Touch(k(0, u)) {
				t.Fatalf("sweep %d unit %d unexpectedly hit", sweep, u)
			}
		}
	}
	_, misses := c.Stats()
	if misses != 300 {
		t.Errorf("misses = %d, want 300", misses)
	}
}

func TestRepeatedTouchesWithinUnitHit(t *testing.T) {
	// Consecutive element accesses within one stripe unit hit.
	c := New(8)
	miss := 0
	for i := 0; i < 1000; i++ {
		if !c.Touch(k(0, int64(i/250))) {
			miss++
		}
	}
	if miss != 4 {
		t.Errorf("misses = %d, want 4", miss)
	}
}

func TestLRUInvariants(t *testing.T) {
	// Property: Len never exceeds capacity; hits+misses equals
	// touches; a touched key is always present afterwards (cap>0).
	rng := rand.New(rand.NewSource(42))
	c := New(16)
	touches := int64(0)
	for i := 0; i < 5000; i++ {
		key := k(rng.Intn(3), int64(rng.Intn(40)))
		c.Touch(key)
		touches++
		if c.Len() > c.Cap() {
			t.Fatalf("len %d exceeds cap %d", c.Len(), c.Cap())
		}
		if !c.Contains(key) {
			t.Fatal("touched key absent")
		}
	}
	h, m := c.Stats()
	if h+m != touches {
		t.Fatalf("hits %d + misses %d != touches %d", h, m, touches)
	}
}

// listLRU is a reference LRU on container/list and a map.
type listLRU struct {
	capacity     int
	ll           *list.List
	m            map[Key]*list.Element
	hits, misses int64
}

func (c *listLRU) touch(k Key) bool {
	if e, ok := c.m[k]; ok {
		c.ll.MoveToFront(e)
		c.hits++
		return true
	}
	c.misses++
	if c.capacity == 0 {
		return false
	}
	if c.ll.Len() >= c.capacity {
		back := c.ll.Back()
		delete(c.m, back.Value.(Key))
		c.ll.Remove(back)
	}
	c.m[k] = c.ll.PushFront(k)
	return false
}

// TestLRUMatchesListReference replays random touch streams, with
// enough reuse to both hit and evict, against the container/list
// reference: every touch must agree on hit or miss, and Len, Stats
// and Contains must agree throughout.
func TestLRUMatchesListReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, capacity := range []int{0, 1, 2, 16, 1000} {
		c := New(capacity)
		ref := &listLRU{capacity: capacity, ll: list.New(), m: map[Key]*list.Element{}}
		span := int64(2 + 2*capacity)
		for i := 0; i < 20000; i++ {
			key := k(rng.Intn(4), rng.Int63n(span))
			if got, want := c.Touch(key), ref.touch(key); got != want {
				t.Fatalf("cap %d touch %d %+v: hit=%t, reference %t", capacity, i, key, got, want)
			}
			if c.Len() != ref.ll.Len() {
				t.Fatalf("cap %d touch %d: Len %d, reference %d", capacity, i, c.Len(), ref.ll.Len())
			}
			probe := k(rng.Intn(4), rng.Int63n(span))
			if _, want := ref.m[probe]; c.Contains(probe) != want {
				t.Fatalf("cap %d touch %d: Contains(%+v) = %t", capacity, i, probe, !want)
			}
		}
		if h, m := c.Stats(); h != ref.hits || m != ref.misses {
			t.Fatalf("cap %d: stats %d/%d, reference %d/%d", capacity, h, m, ref.hits, ref.misses)
		}
	}
}

// TestNewAllocatesWithUse pins that the capacity is a bound, not a
// reservation: a cache of 16M units that holds a few costs little.
func TestNewAllocatesWithUse(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := New(1 << 24)
	for u := int64(0); u < 8; u++ {
		c.Touch(k(0, u))
	}
	runtime.ReadMemStats(&after)
	if c.Len() != 8 {
		t.Fatalf("Len = %d, want 8", c.Len())
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("New(1<<24) and 8 touches allocated %d bytes, want under 1 MB", grew)
	}
}
