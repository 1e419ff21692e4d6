package engine

import (
	"math"
	"path/filepath"

	"pmevo/internal/cachestore"
	"pmevo/internal/cachetable"
	"pmevo/internal/exp"
	"pmevo/internal/portmap"
)

// Persistence of the cross-generation fitness cache (the engine side of
// the warm-start seam; the measurement side is measure.Load/SaveSimCache).
//
// A fitness-cache entry maps a whole-mapping fingerprint → Davg bits.
// The key is a pure content hash, but Davg is a function of mapping ×
// experiment set, so a spill is only valid against the exact set it was
// built from. ExpSetFingerprint hashes the set and gates the file as
// cachestore's content key — a spill taken against different
// measurements loads as empty and the run cold-starts. Within a matching
// set, warm entries are the exact floats a fresh evaluation would
// produce, so a warm-started run is bit-identical to a cold one (only
// timing changes).

// ExpSetFingerprint returns a 64-bit content hash of a measured
// experiment set: the instruction count, every experiment's terms in
// order, and the exact bits of every measured throughput. It is the
// content key under which a Service's fitness cache is spilled and
// reloaded, and part of the evolution checkpoint's key.
func ExpSetFingerprint(set *exp.Set) uint64 {
	h := portmap.CombineFingerprints(0x706d65766f736574, uint64(set.NumInsts)) // "pmevoset"
	for _, v := range set.Individual {
		h = portmap.CombineFingerprints(h, math.Float64bits(v))
	}
	for _, m := range set.Measurements {
		h = portmap.CombineFingerprints(h, uint64(len(m.Exp)))
		for _, t := range m.Exp {
			h = portmap.CombineFingerprints(h, uint64(t.Inst))
			h = portmap.CombineFingerprints(h, uint64(t.Count))
		}
		h = portmap.CombineFingerprints(h, math.Float64bits(m.Throughput))
	}
	if h == 0 {
		h = 1
	}
	return h
}

// FitCachePath returns the conventional cross-generation fitness-cache
// spill file inside an evolution checkpoint directory.
func FitCachePath(dir string) string { return filepath.Join(dir, "fitness-cache.pmc") }

// LoadFitCache reads a fitness-cache spill (Service.FitCacheSnapshot)
// taken against the given experiment set, for
// ServiceOptions.FitCacheWarm. It never fails into a result path: a
// missing, damaged, or foreign-set file yields nil entries plus a typed
// cachestore diagnostic (errors.Is against cachestore.ErrMissing et
// al.), and the run cold-starts.
func LoadFitCache(path string, set *exp.Set) ([]cachetable.Entry, error) {
	return cachestore.Load(path, cachestore.SchemaFitnessCache, ExpSetFingerprint(set))
}

// SaveFitCache atomically spills fitness-cache entries taken against
// the given experiment set to path.
func SaveFitCache(path string, set *exp.Set, entries []cachetable.Entry) error {
	return cachestore.Save(path, cachestore.SchemaFitnessCache, ExpSetFingerprint(set), entries)
}
