package engine

import (
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"pmevo/internal/cachestore"
	"pmevo/internal/exp"
	"pmevo/internal/portmap"
)

// TestLoadMemoRejectsForeignSet: a fitness-cache spill (the memo of
// whole-mapping fingerprint → Davg) taken against one experiment set
// must load as empty against any other, because Davg is a function of
// mapping × set; against the same set it must warm-start a Service with
// the exact spilled bits.
func TestLoadMemoRejectsForeignSet(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	_, setA := measuredSet(t, rng, 8, 4)
	_, setB := measuredSet(t, rng, 8, 4)
	if ExpSetFingerprint(setA) == ExpSetFingerprint(setB) {
		t.Fatal("distinct sets share a fingerprint")
	}
	svc, err := NewService(setA, ServiceOptions{FitCacheEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	m := portmap.Random(rng, portmap.RandomOptions{NumInsts: 8, NumPorts: 4, MaxUops: 2})
	f, err := svc.Evaluate(m)
	if err != nil {
		t.Fatal(err)
	}
	svc.FitnessCachePut(m.FingerprintAll(), f.Davg)
	path := filepath.Join(t.TempDir(), "fitness-cache.pmc")
	if err := SaveFitCache(path, setA, svc.FitCacheSnapshot()); err != nil {
		t.Fatal(err)
	}
	if entries, err := LoadFitCache(path, setB); len(entries) != 0 || !errors.Is(err, cachestore.ErrContentKey) {
		t.Fatalf("foreign-set load returned %d entries (err %v)", len(entries), err)
	}
	entries, err := LoadFitCache(path, setA)
	if len(entries) == 0 || err != nil {
		t.Fatalf("same-set load failed: %d entries, err %v", len(entries), err)
	}
	warm, err := NewService(setA, ServiceOptions{FitCacheEntries: 64, FitCacheWarm: entries})
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := warm.FitnessCacheGet(m.FingerprintAll()); !ok || math.Float64bits(d) != math.Float64bits(f.Davg) {
		t.Fatalf("warm fitness cache returned %v (hit %v), want %v", d, ok, f.Davg)
	}
}

// TestExpSetFingerprintSensitivity: the content key must change when any
// component of the set changes — instruction count, terms, or the exact
// bits of a measured throughput.
func TestExpSetFingerprintSensitivity(t *testing.T) {
	base := &exp.Set{
		NumInsts:   2,
		Individual: []float64{1, 2},
		Measurements: []exp.Measurement{
			{Exp: portmap.Experiment{{Inst: 0, Count: 1}}, Throughput: 1},
			{Exp: portmap.Experiment{{Inst: 1, Count: 2}}, Throughput: 2},
		},
	}
	fp := ExpSetFingerprint(base)
	mutations := []func(*exp.Set){
		func(s *exp.Set) { s.NumInsts = 3 },
		func(s *exp.Set) { s.Individual[1] = 2.5 },
		func(s *exp.Set) { s.Measurements[0].Throughput = 1.0000000001 },
		func(s *exp.Set) { s.Measurements[1].Exp[0].Count = 3 },
		func(s *exp.Set) { s.Measurements[1].Exp[0].Inst = 0 },
		func(s *exp.Set) { s.Measurements = s.Measurements[:1] },
	}
	for i, mutate := range mutations {
		clone := &exp.Set{
			NumInsts:   base.NumInsts,
			Individual: append([]float64(nil), base.Individual...),
		}
		for _, m := range base.Measurements {
			clone.Measurements = append(clone.Measurements, exp.Measurement{
				Exp:        append(portmap.Experiment(nil), m.Exp...),
				Throughput: m.Throughput,
			})
		}
		mutate(clone)
		if ExpSetFingerprint(clone) == fp {
			t.Errorf("mutation %d did not change the set fingerprint", i)
		}
	}
}
