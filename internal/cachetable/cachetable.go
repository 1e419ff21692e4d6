// Package cachetable provides the bounded, lock-free cache table behind
// the measurement layer's kernel-simulation cache: a fixed-size array
// of independently atomic slots, grouped into buckets of four adjacent
// slots, with each key confined to one bucket.
//
// Each slot packs (key, value) into two atomic words with the
// transposition-table XOR trick: the tag word stores key ^ value, so a
// torn read (tag from one write, value from another) fails the tag
// check and reads as a miss instead of returning a mismatched value. A
// false hit requires two concurrently written keys with colliding
// tag/value XORs — the same ~2^-64 regime as a fingerprint collision.
//
// The table is a cache, not a map: up to four keys that share a bucket
// coexist, and a fifth overwrites one of them (bounded memory, no
// eviction bookkeeping). A lost entry only costs a recomputation.
// Callers must never use key 0 (an empty slot would read as a hit for
// it); hash constructions here map 0 to 1.
package cachetable

import "sync/atomic"

// Table is the bucketed cache. Values are raw 64-bit words; callers
// storing floats convert with math.Float64bits/Float64frombits.
type Table struct {
	mask    uint64 // bucket count - 1
	entries []entry
}

type entry struct {
	tag atomic.Uint64 // key ^ val
	val atomic.Uint64
}

// A key may occupy any of the bucketSlots adjacent slots of its bucket.
const (
	bucketBits  = 2
	bucketSlots = 1 << bucketBits
)

// MinEntries and MaxEntries bound the slot count of every table. The
// floor keeps degenerate requests (0, negative) from building a 1-slot
// table where every key collides with every other; the ceiling keeps a
// miscomputed request (or the old round-up loop's overflow for inputs
// near MaxInt) from attempting a multi-gigabyte — or, after signed
// overflow, negative — allocation. 2^24 slots is 256 MiB, far above any
// configured consumer (the largest default is 2^16).
const (
	MinEntries = 1 << 6
	MaxEntries = 1 << 24
)

// New creates a table with at least `entries` slots, rounded up to a
// power of two and clamped to [MinEntries, MaxEntries].
func New(entries int) *Table {
	if entries < MinEntries {
		entries = MinEntries
	}
	if entries > MaxEntries {
		entries = MaxEntries
	}
	size := MinEntries
	for size < entries {
		size <<= 1
	}
	return &Table{mask: uint64(size/bucketSlots - 1), entries: make([]entry, size)}
}

// bucket returns the slots key may occupy.
func (t *Table) bucket(key uint64) []entry {
	b := (key & t.mask) * bucketSlots
	return t.entries[b : b+bucketSlots]
}

// Get returns the value stored for key, if present.
func (t *Table) Get(key uint64) (uint64, bool) {
	bkt := t.bucket(key)
	for i := range bkt {
		e := &bkt[i]
		v := e.val.Load()
		if e.tag.Load() == key^v {
			return v, true
		}
	}
	return 0, false
}

// Put stores the value for key in its bucket: in the slot that already
// holds key, else in an empty slot, else over the slot the key's top
// bits choose.
func (t *Table) Put(key, val uint64) {
	bkt := t.bucket(key)
	slot := -1
	for i := range bkt {
		e := &bkt[i]
		v := e.val.Load()
		tag := e.tag.Load()
		if tag == key^v {
			slot = i
			break
		}
		if slot < 0 && tag == 0 && v == 0 {
			slot = i
		}
	}
	if slot < 0 {
		slot = int(key >> (64 - bucketBits))
	}
	e := &bkt[slot]
	e.tag.Store(key ^ val)
	e.val.Store(val)
}

// Clear drops every entry. Zeroed slots read as misses for all valid
// (non-zero) keys, so clearing is safe even while readers are active —
// a concurrent Get sees either the old entry or a miss. Benchmark
// drivers use this to time cold-cache behavior; results are unaffected
// (the table caches a pure function).
func (t *Table) Clear() {
	for i := range t.entries {
		t.entries[i].tag.Store(0)
		t.entries[i].val.Store(0)
	}
}

// Entry is one live (key, value) pair, the unit of the snapshot/load API
// that internal/cachestore persists to disk.
type Entry struct {
	Key uint64
	Val uint64
}

// Snapshot returns every live entry of the table. Unlike Get, Snapshot
// reconstructs keys from the XOR tag, so the tag trick cannot flag a
// torn read — a Put racing a slot being snapshotted could yield an
// entry whose reconstructed key is neither the old nor the new one.
// Callers must therefore only snapshot at quiesce points (save-on-exit,
// between benchmark phases), never concurrently with writers. As
// defense in depth — not a concurrency guarantee — slots whose tag
// changes mid-read or whose reconstructed key does not map back to the
// bucket it was read from (every genuine entry's key does; a fabricated
// tag^val almost surely does not) are dropped.
func (t *Table) Snapshot() []Entry {
	var out []Entry
	for i := range t.entries {
		e := &t.entries[i]
		tag := e.tag.Load()
		val := e.val.Load()
		if tag != e.tag.Load() {
			continue // slot written mid-read; skip rather than persist garbage
		}
		key := tag ^ val
		if key == 0 {
			continue // empty slot (valid keys are never 0)
		}
		if key&t.mask != uint64(i/bucketSlots) {
			continue // torn or corrupt slot: a real entry lives in its key's bucket
		}
		out = append(out, Entry{Key: key, Val: val})
	}
	return out
}

// LoadEntries stores every entry into the table as Put does and returns
// the number stored.
// Entries with key 0 are skipped (an empty slot would read as a hit for
// key 0, so valid tables never contain it).
func (t *Table) LoadEntries(entries []Entry) int {
	n := 0
	for _, e := range entries {
		if e.Key == 0 {
			continue
		}
		t.Put(e.Key, e.Val)
		n++
	}
	return n
}
