package portmap

import "fmt"

// Decomposition fingerprints: every instruction's µop decomposition has a
// 64-bit fingerprint, a hash of its canonical []UopCount form. Two
// decompositions with the same multiset of µops have the same fingerprint;
// distinct decompositions collide with probability ~2^-64. The engine's
// per-worker unit-table cache treats fingerprint equality as
// decomposition equality.
//
// Fingerprints are maintained eagerly by every mutating method of Mapping
// (SetDecomp, SetDecompMerged, AddUop, SetUopCount, RemoveUopAt,
// InsertUopAt) and copied by Clone, so reading them (Fingerprint,
// FingerprintAll) never writes shared state and is safe under concurrent
// evaluation. Code that writes Mapping.Decomp directly must call
// InvalidateFingerprints afterwards; mappings built as struct literals
// need no call (uncached entries are recomputed on demand).

// fpSeed is the fingerprint chain seed (the golden-ratio constant).
const fpSeed uint64 = 0x9e3779b97f4a7c15

// mix64 is the splitmix64 finalizer, a strong 64-bit bit mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// CombineFingerprints chains fingerprint fp into hash state h: the
// mixing step shared by FingerprintAll and the content keys built on it
// (the evolution checkpoint key and its experiment-set fingerprint).
func CombineFingerprints(h, fp uint64) uint64 {
	return mix64(h ^ fp)
}

// FingerprintDecomp hashes a canonical µop decomposition (merged by port
// set, sorted — the form every Mapping.Decomp entry is kept in). The
// result is never 0, so 0 can serve as a "not cached" sentinel.
func FingerprintDecomp(uops []UopCount) uint64 {
	h := fpSeed
	for _, uc := range uops {
		h = mix64(h ^ uint64(uc.Ports))
		h = mix64(h ^ uint64(uc.Count))
	}
	if h == 0 {
		return 1
	}
	return h
}

// Fingerprint returns the fingerprint of instruction inst's decomposition.
// It reads the cache maintained by the mutating methods and recomputes
// (without caching, so concurrent reads stay write-free) when the entry is
// absent.
//
// Under the `pmevodebug` build tag every cached read is verified against
// a recomputation and panics on mismatch, catching the one way to corrupt
// the engine's fingerprint-keyed caches: writing Mapping.Decomp directly
// without calling InvalidateFingerprints. The release build skips the
// check (the comparison would double the cost of the hottest read in the
// engine).
func (m *Mapping) Fingerprint(inst int) uint64 {
	if inst < len(m.fps) {
		if fp := m.fps[inst]; fp != 0 {
			if debugFingerprints && fp != FingerprintDecomp(m.Decomp[inst]) {
				panic(fmt.Sprintf(
					"portmap: instruction %d has a stale cached fingerprint: Decomp was written directly without InvalidateFingerprints", inst))
			}
			return fp
		}
	}
	return FingerprintDecomp(m.Decomp[inst])
}

// CheckFingerprints verifies every cached fingerprint against its
// decomposition and reports the first stale entry. It is the always-
// available form of the `pmevodebug` assertion, for tests and debugging
// sessions that suspect a direct Decomp write.
func (m *Mapping) CheckFingerprints() error {
	for i := range m.Decomp {
		if i < len(m.fps) && m.fps[i] != 0 && m.fps[i] != FingerprintDecomp(m.Decomp[i]) {
			return fmt.Errorf(
				"portmap: instruction %d has a stale cached fingerprint: Decomp was written directly without InvalidateFingerprints", i)
		}
	}
	return nil
}

// FingerprintAll returns a fingerprint of the whole mapping: the port
// count and every instruction's decomposition fingerprint, chained in
// instruction order. Equal mappings (Equal) have equal FingerprintAll;
// the evolution checkpoint key hashes its seed mappings with it.
func (m *Mapping) FingerprintAll() uint64 {
	h := mix64(fpSeed ^ uint64(m.NumPorts))
	for i := range m.Decomp {
		h = mix64(h ^ m.Fingerprint(i))
	}
	return h
}

// InvalidateFingerprints drops all cached fingerprints. Call it after
// writing Mapping.Decomp directly (bypassing the mutating methods);
// subsequent reads recompute from the decompositions.
func (m *Mapping) InvalidateFingerprints() {
	for i := range m.fps {
		m.fps[i] = 0
	}
}

// cacheFingerprint stores the fingerprint of instruction inst, growing
// the cache if the mapping was built without one.
func (m *Mapping) cacheFingerprint(inst int) {
	if m.fps == nil || len(m.fps) < len(m.Decomp) {
		m.fps = make([]uint64, len(m.Decomp))
	}
	m.fps[inst] = FingerprintDecomp(m.Decomp[inst])
}
