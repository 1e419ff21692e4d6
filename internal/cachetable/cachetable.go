// Package cachetable provides the bounded, lock-free cache table behind
// the measurement layer's kernel-simulation cache: a fixed-size array
// of independently atomic slots, direct-mapped by key.
//
// Each slot packs (key, value) into two atomic words with the
// transposition-table XOR trick: the tag word stores key ^ value, so a
// torn read (tag from one write, value from another) fails the tag
// check and reads as a miss instead of returning a mismatched value. A
// false hit requires two concurrently written keys with colliding
// tag/value XORs — the same ~2^-64 regime as a fingerprint collision.
//
// The table is a cache, not a map: colliding keys overwrite each other
// (bounded memory, no eviction bookkeeping), and a lost entry only
// costs a recomputation. Callers must never use key 0 (an empty slot
// would read as a hit for it); hash constructions here map 0 to 1.
package cachetable

import "sync/atomic"

// Table is the direct-mapped cache. Values are raw 64-bit words;
// callers storing floats convert with math.Float64bits/Float64frombits.
type Table struct {
	mask    uint64
	entries []entry
}

type entry struct {
	tag atomic.Uint64 // key ^ val
	val atomic.Uint64
}

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
	return &Table{mask: uint64(size - 1), entries: make([]entry, size)}
}

// Get returns the value stored for key, if present.
func (t *Table) Get(key uint64) (uint64, bool) {
	e := &t.entries[key&t.mask]
	v := e.val.Load()
	if e.tag.Load() != key^v {
		return 0, false
	}
	return v, true
}

// Put stores the value for key, overwriting whatever shared the slot.
func (t *Table) Put(key, val uint64) {
	e := &t.entries[key&t.mask]
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
// slot it was read from (every genuine entry's key does; a fabricated
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
		if key&t.mask != uint64(i) {
			continue // torn or corrupt slot: a real entry lives where its key maps
		}
		out = append(out, Entry{Key: key, Val: val})
	}
	return out
}

// LoadEntries stores every entry into the table with the usual
// overwrite-on-collision semantics and returns the number stored.
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
