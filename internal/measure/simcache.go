package measure

import (
	"errors"
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
// experiment sets (pipeline generation, calibration probes, benchmark
// sets, C emission), and every eval driver rebuilds harnesses over the
// same three processors. The noiseless steady-state cycles of a body are
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
// client is this package.

// simCacheEntries bounds the shared cache: 2^16 slots × 16 bytes = 1 MiB,
// comfortably above the distinct-kernel count of a full Table 1
// evaluation sweep.
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

// simHintEntries bounds the per-body period-hint table: hints are one
// word per distinct body (not per body × iteration counts), so a much
// smaller table than the kernel cache suffices.
const simHintEntries = 1 << 12

// sharedHintCache maps a body fingerprint (machine + canonical body,
// without iteration counts) to the steady-state period in body
// iterations detected by a previous simulation of that body. When the
// kernel cache misses only because the iteration counts differ — the
// calibration sweep and harnesses with different warmup/measure budgets
// re-simulate bodies the cache has already seen — the stored period is
// passed back as a detection hint, so the re-run skips most detection
// hashing (machine.SteadyStateCyclesHinted). Hints affect only cost,
// never results: a stale or colliding hint at worst delays detection.
// Persisted next to the kernel cache spill (LoadHintCache/SaveHintCache,
// wired into WarmStartSimCache/SpillSimCache), so cross-process reruns
// skip detection hashing on first contact with a body too; values read
// back from disk pass through the same > 1 && <= maxPeriodHint gate as
// live table reads, so a corrupt record degrades to cold detection.
var sharedHintCache = cachetable.New(simHintEntries)

// hintCacheContentKey tags the on-disk period-hint spill ("pmevohnt").
// As with the kernel cache, each entry's own key carries the machine
// fingerprint, so a hint file from a different simulator configuration
// never hits.
const hintCacheContentKey = 0x706d65766f686e74

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
	procSimHintHits atomic.Int64
)

// FlushSimCache drops every cached kernel simulation, including entries
// warm-started from disk (the warm-hit attribution set is cleared with
// them) and the per-body period hints. Results are never affected — the cache holds a pure function
// of its key — but timing is: benchmark drivers flush before a timed
// run so the reported cost is cold-cache and independent of whatever
// measured earlier in the process. Process-wide counters are cumulative
// and not reset; drivers snapshot and subtract.
func FlushSimCache() {
	simCacheMu.Lock()
	defer simCacheMu.Unlock()
	sharedSimCache.Clear()
	sharedHintCache.Clear()
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

// HintCachePath returns the conventional period-hint spill file inside
// a tool's -cache-dir (written and read alongside the kernel cache).
func HintCachePath(dir string) string { return filepath.Join(dir, "period-hints.pmc") }

// ErrNoValidHints is LoadHintCache's diagnostic for a well-formed hint
// file none of whose values fall in the valid period range.
var ErrNoValidHints = errors.New("no hint in valid period range")

// LoadHintCache warm-starts the per-body period-hint table from the
// spill file at path, returning the number of hints seeded and, when
// nothing was loaded, a typed diagnostic (errors.Is against
// cachestore.ErrMissing et al., or ErrNoValidHints). Like LoadSimCache
// it never fails into a result path: a missing, truncated, corrupt, or
// mismatched file — or one whose values are outside the valid period
// range — seeds nothing, and detection runs cold. Hints only gate which
// iterations detection hashes, so even an adversarial file cannot
// change measurement results, only delay detection.
func LoadHintCache(path string) (loaded int, err error) {
	entries, err := cachestore.Load(path, cachestore.SchemaPeriodHints, hintCacheContentKey)
	if len(entries) == 0 {
		return 0, err
	}
	// Drop out-of-range values at the door (the read path re-checks, so
	// this only keeps garbage from occupying slots).
	valid := entries[:0]
	for _, e := range entries {
		if e.Val > 1 && e.Val <= maxPeriodHint {
			valid = append(valid, e)
		}
	}
	if len(valid) == 0 {
		return 0, ErrNoValidHints
	}
	simCacheMu.Lock()
	defer simCacheMu.Unlock()
	return sharedHintCache.LoadEntries(valid), nil
}

// SaveHintCache atomically spills the period-hint table to path. Same
// quiesce-point contract as SaveSimCache.
func SaveHintCache(path string) error {
	simCacheMu.Lock()
	defer simCacheMu.Unlock()
	return cachestore.SaveTable(path, cachestore.SchemaPeriodHints, hintCacheContentKey, sharedHintCache)
}

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
	hintPath := HintCachePath(dir)
	if loaded, err := LoadHintCache(hintPath); loaded > 0 {
		logf("warm-started period hints: %d entries from %s", loaded, hintPath)
	} else {
		logf("period hints cold start (%v)", err)
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
	hintPath := HintCachePath(dir)
	if err := SaveHintCache(hintPath); err != nil {
		logf("spill period hints: %v", err)
	} else {
		logf("spilled period hints to %s", hintPath)
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
	key = combineBody(key, mach, body)
	if key == 0 {
		key = 1 // 0 would read an empty slot as a hit
	}
	return key
}

// hintKey is the per-body period-hint key: simKey's canonical body
// encoding without the iteration counts, under its own salt, so a body
// simulated under one (warmup, measure) budget shares its detected
// period with every other budget.
func hintKey(mach *machine.Machine, body []machine.Inst) uint64 {
	key := portmap.CombineFingerprints(0x706d65766f686e74, mach.Fingerprint()) // "pmevohnt"
	key = combineBody(key, mach, body)
	if key == 0 {
		key = 1
	}
	return key
}

// combineBody folds the canonical loop-body encoding into key (shared by
// simKey and hintKey; see simKey for why spec-content fingerprints and
// length-prefixed register lists).
func combineBody(key uint64, mach *machine.Machine, body []machine.Inst) uint64 {
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
	return key
}

// CacheStats counts kernel-cache traffic. Hits + misses equals the
// number of steady-state simulations requested; SimWarmHits is the
// subset of hits whose key was seeded from disk by LoadSimCache;
// SimPeriodHints is the number of simulations (cache misses and
// calibration probes) that ran with a period hint recovered from an
// earlier simulation of the same body. With the cache disabled all
// stay zero.
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
		SimHits:        h.simHits.Load(),
		SimMisses:      h.simMisses.Load(),
		SimWarmHits:    h.simWarmHits.Load(),
		SimPeriodHints: h.simHintHits.Load(),
	}
}

// ProcessCacheStats returns the process-wide kernel-cache counters:
// cumulative traffic from every harness since process start. Drivers
// that report per-phase hit rates snapshot before and after and
// subtract, so entries seeded by earlier phases never inflate a later
// phase's report.
func ProcessCacheStats() CacheStats {
	return CacheStats{
		SimHits:        procSimHits.Load(),
		SimMisses:      procSimMisses.Load(),
		SimWarmHits:    procSimWarmHits.Load(),
		SimPeriodHints: procSimHintHits.Load(),
	}
}

// Sub returns s - o field-wise (the snapshot-and-subtract helper for
// per-phase attribution).
func (s CacheStats) Sub(o CacheStats) CacheStats {
	return CacheStats{
		SimHits:        s.SimHits - o.SimHits,
		SimMisses:      s.SimMisses - o.SimMisses,
		SimWarmHits:    s.SimWarmHits - o.SimWarmHits,
		SimPeriodHints: s.SimPeriodHints - o.SimPeriodHints,
	}
}

// maxPeriodHint caps hint values read from the shared table: a key
// collision (or a stale slot) could surface an arbitrary word, and
// modulo-gating detection with an absurd period would postpone it past
// the budget for no benefit. Genuinely detected periods are bounded by
// the snapshot ring; anything larger is dropped on read.
const maxPeriodHint = 1 << 20

// steadyState returns the noiseless steady-state cycles per iteration of
// a loop body, through the shared kernel cache unless disabled. Safe for
// concurrent use (MeasureAll fans simulations out over all cores).
func (h *Harness) steadyState(body []machine.Inst) (float64, error) {
	if h.opts.DisableSimCache {
		// The disabled path is the pre-cache cost model exactly: no key
		// hashing, no period hints. Benchmarks that toggle the knob
		// measure the full caching layer, hints included.
		return h.mach.SteadyStateCycles(body, h.opts.WarmupIters, h.opts.MeasureIters)
	}
	key := simKey(h.mach, h.opts.WarmupIters, h.opts.MeasureIters, body)
	if v, ok := sharedSimCache.Get(key); ok {
		h.simHits.Add(1)
		procSimHits.Add(1)
		if warm := warmSimKeys.Load(); warm != nil {
			if _, ok := (*warm)[key]; ok {
				h.simWarmHits.Add(1)
				procSimWarmHits.Add(1)
			}
		}
		return math.Float64frombits(v), nil
	}
	v, err := h.steadyStateHinted(body, h.opts.WarmupIters, h.opts.MeasureIters)
	if err != nil {
		return 0, err
	}
	sharedSimCache.Put(key, math.Float64bits(v))
	h.simMisses.Add(1)
	procSimMisses.Add(1)
	return v, nil
}

// steadyStateHinted simulates a body under the given iteration budget,
// consulting the per-body hint table: a kernel-cache miss that is "the
// same body under different iteration counts" — the calibration sweep,
// or harnesses with different warmup/measure budgets — reuses the period
// detected by the earlier run, so detection re-engages with almost no
// hashing. Whatever period this run detects is stored back for the next
// one. Results are bit-identical with or without a hint (hints only gate
// which iterations are hashed; machine.SteadyStateCyclesHinted).
func (h *Harness) steadyStateHinted(body []machine.Inst, warmup, measure int) (float64, error) {
	hk := hintKey(h.mach, body)
	hint := 0
	if v, ok := sharedHintCache.Get(hk); ok && v > 1 && v <= maxPeriodHint {
		hint = int(v)
		h.simHintHits.Add(1)
		procSimHintHits.Add(1)
	}
	cyc, res, err := h.mach.SteadyStateCyclesHinted(body, warmup, measure, hint)
	if err != nil {
		return 0, err
	}
	if p := res.DetectedPeriodIters; p > 1 && p != hint {
		sharedHintCache.Put(hk, uint64(p))
	}
	return cyc, nil
}
