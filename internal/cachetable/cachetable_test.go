package cachetable

import (
	"math"
	"testing"
)

// TestNewClampsSize is the regression test for the degenerate and
// overflowing size requests: entries <= 0 used to build a 1-slot table,
// and the power-of-two round-up loop could overflow for inputs near
// MaxInt.
func TestNewClampsSize(t *testing.T) {
	cases := []struct {
		entries int
		want    int
	}{
		{math.MinInt, MinEntries},
		{-1, MinEntries},
		{0, MinEntries},
		{1, MinEntries},
		{MinEntries, MinEntries},
		{MinEntries + 1, MinEntries * 2},
		{1 << 16, 1 << 16},
		{1<<16 + 1, 1 << 17},
		{MaxEntries - 1, MaxEntries},
		{MaxEntries, MaxEntries},
		{MaxEntries + 1, MaxEntries},
		{math.MaxInt/2 + 1, MaxEntries}, // would overflow the old round-up loop
		{math.MaxInt, MaxEntries},
	}
	for _, c := range cases {
		if got := len(New(c.entries).entries); got != c.want {
			t.Errorf("New(%d) has %d slots, want %d", c.entries, got, c.want)
		}
	}
}

func TestGetPutClear(t *testing.T) {
	tab := New(MinEntries)
	if _, ok := tab.Get(42); ok {
		t.Fatal("empty table reported a hit")
	}
	tab.Put(42, 99)
	if v, ok := tab.Get(42); !ok || v != 99 {
		t.Fatalf("Get(42) = %v, %v; want 99, true", v, ok)
	}
	tab.Put(42, 5) // a second Put of a key replaces its value in place
	if v, ok := tab.Get(42); !ok || v != 5 {
		t.Fatalf("Get(42) = %v, %v; want 5, true", v, ok)
	}
	tab.Clear()
	if _, ok := tab.Get(42); ok {
		t.Fatal("cleared table reported a hit")
	}
}

// TestBucketHoldsFourKeys is the regression test for colliding kernel
// keys evicting each other: keys a table-size apart share a bucket, so
// four of them must all read back, and a fifth must evict exactly one.
func TestBucketHoldsFourKeys(t *testing.T) {
	tab := New(MinEntries)
	stride := uint64(len(tab.entries))
	keys := []uint64{42, 42 + stride, 42 + 2*stride, 42 + 3*stride}
	for i, k := range keys {
		tab.Put(k, uint64(100+i))
	}
	for i, k := range keys {
		if v, ok := tab.Get(k); !ok || v != uint64(100+i) {
			t.Fatalf("key %d of 4 in one bucket: Get = %v, %v; want %d, true", i, v, ok, 100+i)
		}
	}
	fifth := 42 + 4*stride
	tab.Put(fifth, 7)
	if v, ok := tab.Get(fifth); !ok || v != 7 {
		t.Fatalf("fifth key: Get = %v, %v; want 7, true", v, ok)
	}
	kept := 0
	for i, k := range keys {
		if v, ok := tab.Get(k); ok {
			if v != uint64(100+i) {
				t.Fatalf("key %d reads %d, want %d", i, v, 100+i)
			}
			kept++
		}
	}
	if kept != 3 {
		t.Fatalf("a fifth key in a full bucket left %d of the 4 keys, want 3", kept)
	}
	if n := len(tab.Snapshot()); n != 4 {
		t.Fatalf("snapshot holds %d entries, want 4", n)
	}
}

func TestSnapshotLoadRoundTrip(t *testing.T) {
	tab := New(1 << 10)
	want := map[uint64]uint64{}
	for i := uint64(1); i <= 300; i++ {
		key := i * 0x9e3779b97f4a7c15
		if key == 0 {
			key = 1
		}
		tab.Put(key, i)
		want[key] = i
	}
	snap := tab.Snapshot()
	// Collisions may have dropped entries, but every snapshotted pair
	// must be one that was stored.
	seen := map[uint64]bool{}
	for _, e := range snap {
		v, ok := want[e.Key]
		if !ok || v != e.Val {
			t.Fatalf("snapshot contains fabricated entry {%#x, %d}", e.Key, e.Val)
		}
		if seen[e.Key] {
			t.Fatalf("snapshot contains duplicate key %#x", e.Key)
		}
		seen[e.Key] = true
	}
	if len(snap) == 0 {
		t.Fatal("snapshot of populated table is empty")
	}

	fresh := New(1 << 10)
	if n := fresh.LoadEntries(snap); n != len(snap) {
		t.Fatalf("LoadEntries stored %d of %d", n, len(snap))
	}
	for _, e := range snap {
		if v, ok := fresh.Get(e.Key); !ok || v != e.Val {
			t.Fatalf("reloaded table misses {%#x, %d} (got %v, %v)", e.Key, e.Val, v, ok)
		}
	}
}

func TestLoadEntriesSkipsZeroKey(t *testing.T) {
	tab := New(MinEntries)
	n := tab.LoadEntries([]Entry{{Key: 0, Val: 5}, {Key: 3, Val: 4}})
	if n != 1 {
		t.Fatalf("LoadEntries = %d, want 1", n)
	}
	if _, ok := tab.Get(3); !ok {
		t.Fatal("valid entry not loaded")
	}
}
