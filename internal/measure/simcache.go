package measure

import (
	"math"
	"path/filepath"
	"sync"
	"sync/atomic"

	"pmevo/internal/cachestore"
	"pmevo/internal/cachetable"
	"pmevo/internal/machine"
	"pmevo/internal/portmap"
)

// Kernel-level simulation cache.
//
// The harness re-simulates identical loop bodies constantly: singleton
// experiments alias their count-scaled variants ({i→1} and {i→k} unroll
// to the same 50-instruction body), the same experiments recur across
// experiment sets (pipeline generation, benchmark sets, C emission),
// and every eval driver rebuilds harnesses over the same three
// processors. The noiseless steady-state cycles of a body are
// a pure function of (machine, warmup, measure, body), so they are
// cached process-wide and shared by all harnesses — and, through
// LoadSimCache/SaveSimCache, across processes: repeated pmevo-bench or
// pmevo-infer invocations on the same virtual machines warm-start
// measurement from disk.
//
// The cache sits strictly below the noise layer: a hit returns the exact
// float the simulation would produce, and noise is drawn per measurement
// in experiment order as before, so Measure/MeasureAll results are
// bit-identical with the cache on or off, cold or warm (pinned by test).
// Keys hash the machine fingerprint, the iteration counts, and the
// canonical body (spec-content fingerprints plus register read/write
// lists); key equality stands in for input equality at the same ~2^-64
// odds as a decomposition fingerprint. The machine fingerprint in
// every key also versions disk-loaded entries: a cache file from a
// different simulator configuration simply never hits. Storage is the
// bounded XOR-tagged atomic table of internal/cachetable, whose only
// client is this package: each key may occupy any slot of its
// four-slot bucket, so keys that share a bucket do not evict each other
// until a fifth arrives. This is the harness's only cache: a miss
// calls Machine.SteadyStateCycles directly, and a tool's -cache-dir
// holds one spill file (SimCachePath).

// simCacheEntries bounds the shared cache: 2^16 slots × 16 bytes = 1 MiB,
// comfortably above the distinct-kernel count of a full Table 1
// evaluation sweep. The table lives for the whole process, so a larger
// one would raise every run's peak heap.
const simCacheEntries = 1 << 16

// simCacheContentKey tags the on-disk spill ("pmevosim"). The entries'
// own keys carry the machine fingerprint, so the file-level content key
// is a fixed schema-style constant.
const simCacheContentKey = 0x706d65766f73696d

// sharedSimCache is the process-wide kernel cache (float64 cycles per
// iteration in a cachetable.Table). Pollution across harnesses is
// harmless by construction: equal keys map to equal deterministic
// simulation results.
var sharedSimCache = cachetable.New(simCacheEntries)

// warmSimKeys is the set of keys seeded from disk by LoadSimCache, used
// to attribute hits to the warm start (CacheStats.SimWarmHits). The map
// is immutable once published; LoadSimCache replaces it wholesale.
var warmSimKeys atomic.Pointer[map[uint64]struct{}]

// simCacheMu serializes the load/save/flush entry points against each
// other (the lookup fast path is lock-free and unaffected).
var simCacheMu sync.Mutex

// Process-wide kernel-cache counters. Per-harness counters (see
// Harness.CacheStats) attribute traffic to one harness but cannot tell
// a self-seeded hit from one seeded by another harness or by a disk
// load; these process totals are the right scope for per-driver
// snapshot-and-subtract reporting (pmevo-bench attributes per-BENCH
// record deltas this way).
var (
	procSimHits     atomic.Int64
	procSimMisses   atomic.Int64
	procSimWarmHits atomic.Int64
)

// FlushSimCache drops every cached kernel simulation, including entries
// warm-started from disk (the warm-hit attribution set is cleared with
// them). Results are never affected — the cache holds a pure function
// of its key — but timing is: benchmark drivers flush before a timed
// run so the reported cost is cold-cache and independent of whatever
// measured earlier in the process. Process-wide counters are cumulative
// and not reset; drivers snapshot and subtract.
func FlushSimCache() {
	simCacheMu.Lock()
	defer simCacheMu.Unlock()
	sharedSimCache.Clear()
	warmSimKeys.Store(nil)
}

// LoadSimCache warm-starts the kernel cache from the spill file at
// path, returning the number of entries seeded and, when nothing was
// loaded, a typed diagnostic (errors.Is against cachestore.ErrMissing
// et al.). It never fails into a result path: a missing, truncated,
// corrupt, or mismatched file seeds nothing and measurement cold-starts
// (cachestore's contract). Call it before measurement begins —
// typically straight after flag parsing; loading concurrently with
// in-flight measurements would blur warm-hit attribution (results would
// still be exact).
func LoadSimCache(path string) (loaded int, err error) {
	entries, err := cachestore.Load(path, cachestore.SchemaSimCache, simCacheContentKey)
	if len(entries) == 0 {
		return 0, err
	}
	simCacheMu.Lock()
	defer simCacheMu.Unlock()
	warm := make(map[uint64]struct{}, len(entries))
	if old := warmSimKeys.Load(); old != nil {
		for k := range *old {
			warm[k] = struct{}{}
		}
	}
	for _, e := range entries {
		warm[e.Key] = struct{}{}
	}
	sharedSimCache.LoadEntries(entries)
	warmSimKeys.Store(&warm)
	return len(entries), nil
}

// SaveSimCache atomically spills the kernel cache to path (temp file +
// rename; see cachestore.Save). Call it at a quiesce point — process
// exit, or between benchmark phases — never concurrently with
// measurement.
func SaveSimCache(path string) error {
	simCacheMu.Lock()
	defer simCacheMu.Unlock()
	return cachestore.SaveTable(path, cachestore.SchemaSimCache, simCacheContentKey, sharedSimCache)
}

// SimCachePath returns the conventional kernel-cache spill file inside
// a tool's -cache-dir.
func SimCachePath(dir string) string { return filepath.Join(dir, "simcache.pmc") }

// WarmStartSimCache loads the kernel-cache spill from a tool's
// -cache-dir and reports the outcome — including why a load seeded
// nothing — through logf (fmt.Printf-style, typically the tool's
// stderr logger). The shared entry point for all three cmds.
func WarmStartSimCache(dir string, logf func(format string, args ...any)) {
	path := SimCachePath(dir)
	if loaded, err := LoadSimCache(path); loaded > 0 {
		logf("warm-started kernel cache: %d entries from %s", loaded, path)
	} else {
		logf("kernel cache cold start (%v)", err)
	}
}

// SpillSimCache saves the kernel cache into a tool's -cache-dir,
// reporting failure through logf instead of failing the caller: a lost
// spill only costs the next invocation recomputation.
func SpillSimCache(dir string, logf func(format string, args ...any)) {
	path := SimCachePath(dir)
	if err := SaveSimCache(path); err != nil {
		logf("spill kernel cache: %v", err)
	} else {
		logf("spilled kernel cache to %s", path)
	}
}

// simKey hashes one steady-state simulation request into its canonical
// form: instructions are identified by spec *content* fingerprint, not
// spec ID, so two bodies whose instructions decompose and behave
// identically alias even when they reference different forms. Real form
// sets make this the dominant redundancy: all instruction forms of a
// semantic class (add/sub/and/... on the same operand shapes) share one
// simulator spec, so their kernels — identical up to form IDs — collapse
// to one simulation. The length-prefixed encoding of reads/writes keeps
// genuinely distinct bodies from aliasing; the two list lengths are
// folded as separate fingerprint combines (packing them into one shifted
// word let ≥ 2^16-entry write lists alias other length splits).
func simKey(mach *machine.Machine, warmup, measure int, body []machine.Inst) uint64 {
	key := portmap.CombineFingerprints(0x706d65766f73696d, mach.Fingerprint()) // "pmevosim"
	key = portmap.CombineFingerprints(key, uint64(warmup))
	key = portmap.CombineFingerprints(key, uint64(measure))
	for i := range body {
		in := &body[i]
		key = portmap.CombineFingerprints(key, mach.SpecFingerprint(in.Spec))
		key = portmap.CombineFingerprints(key, uint64(len(in.Reads)))
		key = portmap.CombineFingerprints(key, uint64(len(in.Writes)))
		for _, r := range in.Reads {
			key = portmap.CombineFingerprints(key, uint64(r))
		}
		for _, w := range in.Writes {
			key = portmap.CombineFingerprints(key, uint64(w))
		}
	}
	if key == 0 {
		key = 1 // 0 would read an empty slot as a hit
	}
	return key
}

// CacheStats counts kernel-cache traffic. Hits + misses equals the
// number of steady-state simulations requested; SimWarmHits is the
// subset of hits whose key was seeded from disk by LoadSimCache. With
// the cache disabled all stay zero. SimPeriodHints always reads 0: the
// per-body period-hint table it counted is gone, and the field stays
// only because the repository benchmark (perfbench) still reads it.
type CacheStats struct {
	SimHits        int64
	SimMisses      int64
	SimWarmHits    int64
	SimPeriodHints int64
}

// CacheStats returns a snapshot of this harness's kernel-cache
// counters: traffic requested by this harness, against the shared
// process-wide table. A hit counted here may have been seeded by
// another harness (or by a disk load — that subset is SimWarmHits);
// for totals attributable across all harnesses use ProcessCacheStats.
func (h *Harness) CacheStats() CacheStats {
	return CacheStats{
		SimHits:     h.simHits.Load(),
		SimMisses:   h.simMisses.Load(),
		SimWarmHits: h.simWarmHits.Load(),
	}
}

// ProcessCacheStats returns the process-wide kernel-cache counters:
// cumulative traffic from every harness since process start. Drivers
// that report per-phase hit rates snapshot before and after and
// subtract, so entries seeded by earlier phases never inflate a later
// phase's report.
func ProcessCacheStats() CacheStats {
	return CacheStats{
		SimHits:     procSimHits.Load(),
		SimMisses:   procSimMisses.Load(),
		SimWarmHits: procSimWarmHits.Load(),
	}
}

// Sub returns s - o field-wise (the snapshot-and-subtract helper for
// per-phase attribution).
func (s CacheStats) Sub(o CacheStats) CacheStats {
	return CacheStats{
		SimHits:     s.SimHits - o.SimHits,
		SimMisses:   s.SimMisses - o.SimMisses,
		SimWarmHits: s.SimWarmHits - o.SimWarmHits,
	}
}

// record adds kernel-cache traffic to the harness and process counters.
func (h *Harness) record(hits, misses, warmHits int) {
	h.simHits.Add(int64(hits))
	h.simMisses.Add(int64(misses))
	h.simWarmHits.Add(int64(warmHits))
	procSimHits.Add(int64(hits))
	procSimMisses.Add(int64(misses))
	procSimWarmHits.Add(int64(warmHits))
}

// isWarm reports whether key was seeded from disk by LoadSimCache.
func isWarm(key uint64) bool {
	warm := warmSimKeys.Load()
	if warm == nil {
		return false
	}
	_, ok := (*warm)[key]
	return ok
}

// steadyState returns the noiseless steady-state cycles per iteration of
// a loop body, through the shared kernel cache unless disabled. Safe for
// concurrent use.
func (h *Harness) steadyState(body []machine.Inst) (float64, error) {
	if h.opts.DisableSimCache {
		// The disabled path is the pre-cache cost model exactly: no key
		// hashing. Benchmarks that toggle the knob measure the caching
		// layer.
		return h.mach.SteadyStateCycles(body, h.opts.WarmupIters, h.opts.MeasureIters)
	}
	key := simKey(h.mach, h.opts.WarmupIters, h.opts.MeasureIters, body)
	if v, ok := sharedSimCache.Get(key); ok {
		warm := 0
		if isWarm(key) {
			warm = 1
		}
		h.record(1, 0, warm)
		return math.Float64frombits(v), nil
	}
	v, err := h.mach.SteadyStateCycles(body, h.opts.WarmupIters, h.opts.MeasureIters)
	if err != nil {
		return 0, err
	}
	sharedSimCache.Put(key, math.Float64bits(v))
	h.record(0, 1, 0)
	return v, nil
}
