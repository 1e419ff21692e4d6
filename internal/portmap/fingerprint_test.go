package portmap

import (
	"math/rand"
	"testing"
)

// TestFingerprintCanonicalInvariance: the fingerprint depends only on the
// µop multiset, not on the order or fragmentation SetDecomp was fed.
func TestFingerprintCanonicalInvariance(t *testing.T) {
	a := NewMapping(1, 4)
	a.SetDecomp(0, []UopCount{
		{Ports: MakePortSet(0, 1), Count: 2},
		{Ports: MakePortSet(2), Count: 1},
	})
	b := NewMapping(1, 4)
	b.SetDecomp(0, []UopCount{
		{Ports: MakePortSet(2), Count: 1},
		{Ports: MakePortSet(0, 1), Count: 1},
		{Ports: MakePortSet(0, 1), Count: 1},
	})
	if a.Fingerprint(0) != b.Fingerprint(0) {
		t.Error("equal decompositions have different fingerprints")
	}
	if a.FingerprintAll() != b.FingerprintAll() {
		t.Error("equal mappings have different whole-mapping fingerprints")
	}
}

// TestFingerprintTracksMutations: every mutating method keeps the cached
// fingerprint consistent with a fresh recomputation, and distinct
// decompositions get distinct fingerprints.
func TestFingerprintTracksMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	check := func(m *Mapping, what string) {
		t.Helper()
		for i := range m.Decomp {
			if got, want := m.Fingerprint(i), FingerprintDecomp(m.Decomp[i]); got != want {
				t.Fatalf("%s: inst %d: cached fingerprint %#x != recomputed %#x", what, i, got, want)
			}
		}
	}
	for trial := 0; trial < 50; trial++ {
		m := Random(rng, RandomOptions{NumInsts: 6, NumPorts: 5, MaxUops: 3})
		check(m, "Random")
		cp := m.Clone()
		check(cp, "Clone")
		if cp.FingerprintAll() != m.FingerprintAll() {
			t.Fatal("clone has different whole-mapping fingerprint")
		}

		i := rng.Intn(6)
		before := cp.Fingerprint(i)
		cp.AddUop(i, RandomPortSet(rng, 5), 1+rng.Intn(2))
		check(cp, "AddUop")
		if cp.Fingerprint(i) == before {
			t.Fatal("AddUop did not change the fingerprint")
		}
		if m.Fingerprint(i) != before {
			t.Fatal("AddUop on a clone changed the original's fingerprint")
		}

		other := m.Decomp[(i+1)%6]
		cp.SetDecompMerged(i, m.Decomp[i], other)
		check(cp, "SetDecompMerged")
		want := NewMapping(1, 5)
		want.SetDecomp(0, append(append([]UopCount(nil), m.Decomp[i]...), other...))
		if !uopsEqual(cp.Decomp[i], want.Decomp[0]) {
			t.Fatalf("SetDecompMerged(%v, %v) = %v, want %v", m.Decomp[i], other, cp.Decomp[i], want.Decomp[0])
		}

		j := rng.Intn(len(cp.Decomp[i]))
		cp.SetUopCount(i, j, cp.Decomp[i][j].Count+1)
		check(cp, "SetUopCount")

		if len(cp.Decomp[i]) > 1 {
			uc := cp.RemoveUopAt(i, j)
			check(cp, "RemoveUopAt")
			cp.InsertUopAt(i, j, uc)
			check(cp, "InsertUopAt")
		}

		cp.SetDecomp(i, m.Decomp[i])
		check(cp, "SetDecomp")
		if cp.Fingerprint(i) != before {
			t.Fatal("restoring the decomposition did not restore the fingerprint")
		}
	}
}

// TestFingerprintRemoveInsertRoundTrip: RemoveUopAt followed by
// InsertUopAt at the same position is an exact inverse (the local-search
// revert path).
func TestFingerprintRemoveInsertRoundTrip(t *testing.T) {
	m := NewMapping(1, 4)
	m.SetDecomp(0, []UopCount{
		{Ports: MakePortSet(0), Count: 2},
		{Ports: MakePortSet(1, 2), Count: 1},
		{Ports: MakePortSet(3), Count: 3},
	})
	want := m.Clone()
	for j := 0; j < 3; j++ {
		uc := m.RemoveUopAt(0, j)
		if len(m.Decomp[0]) != 2 {
			t.Fatalf("j=%d: removal left %d µops", j, len(m.Decomp[0]))
		}
		m.InsertUopAt(0, j, uc)
		if !m.Equal(want) {
			t.Fatalf("j=%d: round trip changed the mapping:\n%s", j, m)
		}
		if m.Fingerprint(0) != want.Fingerprint(0) {
			t.Fatalf("j=%d: round trip changed the fingerprint", j)
		}
	}
}

// TestFingerprintPureFallback: mappings built without the mutating
// methods (struct literals, direct Decomp writes) still produce correct
// fingerprints, and InvalidateFingerprints recovers from direct writes.
func TestFingerprintPureFallback(t *testing.T) {
	lit := &Mapping{
		NumPorts: 3,
		Decomp:   [][]UopCount{{{Ports: MakePortSet(0, 1), Count: 1}}},
	}
	built := NewMapping(1, 3)
	built.SetDecomp(0, []UopCount{{Ports: MakePortSet(0, 1), Count: 1}})
	if lit.Fingerprint(0) != built.Fingerprint(0) {
		t.Error("literal-built mapping fingerprint differs from SetDecomp-built")
	}
	if lit.FingerprintAll() != built.FingerprintAll() {
		t.Error("literal-built whole-mapping fingerprint differs")
	}

	built.Decomp[0][0].Count = 2 // direct write: cache is stale by contract
	built.InvalidateFingerprints()
	fresh := NewMapping(1, 3)
	fresh.SetDecomp(0, []UopCount{{Ports: MakePortSet(0, 1), Count: 2}})
	if built.Fingerprint(0) != fresh.Fingerprint(0) {
		t.Error("InvalidateFingerprints did not recover from a direct write")
	}
}

// TestFingerprintDistinctness samples random decomposition pairs and
// checks they do not collide (probabilistic; a failure here indicates a
// broken hash, not bad luck).
func TestFingerprintDistinctness(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	seen := make(map[uint64][]UopCount)
	for trial := 0; trial < 2000; trial++ {
		d := randomDecomp(rng, 6, 3, 2)
		fp := FingerprintDecomp(d)
		if fp == 0 {
			t.Fatal("fingerprint 0 is reserved as the not-cached sentinel")
		}
		if prev, ok := seen[fp]; ok && !uopsEqual(prev, d) {
			t.Fatalf("collision: %v and %v -> %#x", prev, d, fp)
		}
		seen[fp] = d
	}
}

func uopsEqual(a, b []UopCount) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCheckFingerprints is the always-available form of the pmevodebug
// assertion: it must accept mappings maintained through the mutating
// methods and name the instruction whose cache went stale after a direct
// Decomp write.
func TestCheckFingerprints(t *testing.T) {
	m := NewMapping(3, 4)
	for i := 0; i < 3; i++ {
		m.SetDecomp(i, []UopCount{{Ports: MakePortSet(i), Count: 1 + i}})
	}
	if err := m.CheckFingerprints(); err != nil {
		t.Fatalf("clean mapping rejected: %v", err)
	}
	m.Decomp[1] = []UopCount{{Ports: MakePortSet(0, 2), Count: 5}}
	if err := m.CheckFingerprints(); err == nil {
		t.Fatal("stale fingerprint not detected")
	}
	m.InvalidateFingerprints()
	if err := m.CheckFingerprints(); err != nil {
		t.Fatalf("invalidated mapping rejected: %v", err)
	}
}
