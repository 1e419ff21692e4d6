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
	// Colliding key (same slot) overwrites.
	collide := 42 + uint64(len(tab.entries))
	tab.Put(collide, 7)
	if _, ok := tab.Get(42); ok {
		t.Fatal("overwritten key still hit")
	}
	if v, ok := tab.Get(collide); !ok || v != 7 {
		t.Fatalf("Get(collide) = %v, %v; want 7, true", v, ok)
	}
	tab.Clear()
	if _, ok := tab.Get(collide); ok {
		t.Fatal("cleared table reported a hit")
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
