package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"pmevo/internal/cachetable"
	"pmevo/internal/exp"
	"pmevo/internal/portmap"
	"pmevo/internal/runctrl"
	"pmevo/internal/throughput"
)

// Fitness holds the two §4.4 objectives of one candidate mapping: the
// average relative prediction error Davg over the measured experiment
// set, and the µop volume V.
type Fitness struct {
	Davg   float64
	Volume int
}

// ServiceOptions configures a fitness-evaluation Service.
type ServiceOptions struct {
	// Workers is the parallelism of EvaluateAll (<= 0: GOMAXPROCS).
	Workers int
	// Predictor selects the throughput engine. nil selects the built-in
	// bottleneck fast path, which evaluates with zero allocation,
	// per-worker reusable evaluator state, and the shared throughput
	// memo; any other engine goes through the generic Predict interface
	// (no memoization).
	Predictor Predictor
	// MemoEntries bounds the shared per-experiment throughput memo
	// (slots, rounded up to a power of two). 0 selects adaptive sizing:
	// the memo starts small and grows — up to a bounded maximum — when
	// the observed miss traffic indicates collision churn (see
	// maybeGrowMemo). Positive values pin the size; negative disables
	// memoization entirely. Sizing never changes results: a smaller
	// table only recomputes more. The memo only accelerates the built-in
	// bottleneck fast path.
	MemoEntries int
	// MemoWarm seeds the memo with entries spilled by a previous run
	// (Service.MemoSnapshot via internal/cachestore), warm-starting
	// evaluation across processes. Keys are content hashes (experiment
	// identity × decomposition fingerprints), so entries from a
	// different experiment set never hit — the persistence layer
	// additionally guards the file with ExpSetFingerprint. Warm entries
	// are the exact floats a fresh evaluation would produce, so results
	// are bit-identical to a cold start; hits on them are counted in
	// CacheStats.MemoWarmHits. Ignored when the memo is disabled.
	MemoWarm []cachetable.Entry
	// FitCacheEntries bounds the cross-generation whole-mapping fitness
	// cache (slots, rounded up to a power of two): FingerprintAll(m) →
	// Davg(m). Where the throughput memo deduplicates per-experiment
	// work inside one evaluation, this cache skips the evaluation of a
	// recurring candidate entirely — across generations, and across the
	// islands of an island-model run sharing one Service. Values are
	// the exact floats a fresh evaluation would produce (the cache holds
	// a pure function of the mapping under the fixed experiment set), so
	// hits never change results. <= 0 disables the cache (the zero-value
	// option keeps the pre-existing Service behavior); consumers opt in
	// with a size (evo.Run uses 2^16 slots by default).
	FitCacheEntries int
	// FitCacheWarm seeds the cross-generation fitness cache with entries
	// from a previous run (Service.FitCacheSnapshot, spilled alongside an
	// evolution checkpoint). Keys are whole-mapping fingerprints and
	// values exact Davg bits, so warm entries are bit-identical to
	// re-evaluating; a resumed run warm-started this way only saves
	// recomputation. Ignored when FitCacheEntries <= 0.
	FitCacheWarm []cachetable.Entry
}

// CacheStats is a snapshot of a Service's evaluation counters. The
// memo/delta counters quantify how much redundant work the caching layer
// eliminated; pmevo-bench's fitness experiment reports them.
type CacheStats struct {
	// Evaluations counts Davg computations: every candidate passed to
	// Evaluate/EvaluateAll/NewState plus every EvaluateDelta probe.
	Evaluations int64
	// DeltaEvaluations counts the EvaluateDelta subset.
	DeltaEvaluations int64
	// MemoHits / MemoMisses count per-experiment memo lookups on the
	// fast path (hits + misses = experiments actually inspected).
	MemoHits   int64
	MemoMisses int64
	// DeltaExperimentsSkipped counts experiments EvaluateDelta did not
	// have to re-predict because the changed instruction does not occur
	// in them.
	DeltaExperimentsSkipped int64
	// MemoEntries is the current memo size in slots (0 when the memo is
	// disabled); MemoResizes counts adaptive growth steps.
	MemoEntries int64
	MemoResizes int64
	// MemoWarmEntries is the number of disk-warm entries the memo was
	// seeded with (ServiceOptions.MemoWarm); MemoWarmHits is the subset
	// of MemoHits served on warm-seeded keys. Attribution is by key:
	// after adaptive growth discards the seeded table, a re-computed
	// entry under a warm key still counts, so treat warm hits as an
	// attribution of keys, not of stored bytes.
	MemoWarmEntries int64
	MemoWarmHits    int64
	// FitCacheHits / FitCacheMisses count cross-generation fitness-cache
	// lookups (FitnessCacheGet): a hit skipped one whole candidate
	// evaluation; FitCacheEntries is the cache size in slots (0 when
	// disabled). Cross-generation hit rate = hits / (hits + misses).
	FitCacheHits    int64
	FitCacheMisses  int64
	FitCacheEntries int64
}

// Service evaluates candidate port mappings against a fixed measured
// experiment set. It is the fitness-evaluation layer of the evolutionary
// algorithm (§4.4/§4.5). Construction pre-flattens the experiment set
// into contiguous storage and builds an inverted index (instruction →
// experiments containing it); batched evaluation fans out over a worker
// pool whose workers each own reusable evaluator state, so the
// per-candidate hot loop allocates nothing.
//
// Two layers make the hot loop sublinear in redundant work:
//
//   - a bounded, shared, lock-free throughput memo keyed by the
//     decomposition-fingerprint tuple of each experiment's instructions:
//     duplicate decompositions across the 2p candidates of a generation
//     (recombined children share µop decompositions with their parents)
//     are evaluated once;
//   - the incremental NewState/EvaluateDelta API: re-evaluating after a
//     single-instruction change only re-predicts the experiments that
//     contain the changed instruction, turning a local-search probe from
//     O(#experiments) into O(#experiments containing the instruction).
//
// Both layers are bit-exact: memoized values are the exact floats a
// fresh evaluation would produce (fingerprint equality stands in for
// decomposition equality at ~2^-64 collision odds), and delta evaluation
// re-accumulates the error sum in experiment order, so Davg is
// bit-identical to a full evaluation.
//
// Evaluate may be called concurrently; EvaluateAll runs one batch at a
// time (per-worker state is reused across batches).
type Service struct {
	workers  int
	numInsts int
	pred     Predictor // nil: bottleneck fast path

	// Pre-flattened experiment set: experiment i is
	// terms[offs[i]:offs[i+1]] with measured throughput meas[i].
	terms []portmap.InstCount
	offs  []int32
	meas  []float64

	// instExps is the inverted index: instExps[i] lists (sorted,
	// deduplicated) the experiments whose multiset contains instruction
	// i. EvaluateDelta re-predicts exactly these.
	instExps [][]int32

	// expSalt[i] seeds experiment i's memo key, so equal fingerprint
	// tuples of different experiments (different counts) never alias.
	expSalt []uint64
	// memo is nil-pointer-valued when memoization is disabled. With
	// adaptive sizing (memoAuto) the table is replaced wholesale on
	// growth — readers hold whatever table they loaded, which is safe:
	// the table is a cache of a pure function.
	memo     atomic.Pointer[memoTable]
	memoAuto bool
	memoMax  int
	// warmKeys is the read-only set of memo keys seeded from
	// ServiceOptions.MemoWarm, for warm-hit attribution; nil when no
	// warm start was requested (the common case — the hit path then
	// pays only a nil check).
	warmKeys    map[uint64]struct{}
	warmEntries int

	// fitCache is the cross-generation whole-mapping fitness cache
	// (FingerprintAll → Davg bits); nil when disabled. Like the memo it
	// is a bounded, lock-free cache of a pure function, shared by every
	// goroutine — and every island — evaluating against this Service.
	fitCache *cachetable.Table

	workerSc []evalScratch // per-worker state for EvaluateAll
	pool     sync.Pool     // *evalScratch for Evaluate

	evals        atomic.Int64
	deltaEvals   atomic.Int64
	memoHits     atomic.Int64
	memoMisses   atomic.Int64
	memoWarmHits atomic.Int64
	deltaSkipped atomic.Int64
	memoResizes  atomic.Int64
	fitHits      atomic.Int64
	fitMisses    atomic.Int64
	// missesAtGrow remembers the total miss count at the last growth
	// decision, so maybeGrowMemo reasons about a window of traffic.
	missesAtGrow atomic.Int64
}

// evalScratch is one worker's reusable evaluation state: the throughput
// evaluator plus per-instruction derived data — subset-sum unit tables
// with their per-cardinality maxima, and pre-flattened unit mass terms —
// keyed by decomposition fingerprint, so they are (re)built only when an
// instruction's decomposition actually differs from the one last seen by
// this worker. Experiments sharing an instruction reuse them within a
// candidate, and candidates sharing decompositions reuse them across the
// batch.
type evalScratch struct {
	ev throughput.Evaluator

	k      int      // port count the tables are built for
	tblFp  []uint64 // fingerprint each table was built from (0: none)
	tables []throughput.UnitTable
	tparts []throughput.TablePart

	unitFp []uint64 // fingerprint each unit-term list was built from
	unit   [][]portmap.MassTerm
	parts  []throughput.Part

	hits int64 // memo counters, flushed per candidate
	miss int64
	warm int64 // hits on disk-warm keys (subset of hits)
}

// ensure sizes the scratch for the instruction count and invalidates the
// tables if the port universe changed.
func (sc *evalScratch) ensure(numInsts, numPorts int) {
	if len(sc.tblFp) < numInsts {
		sc.tblFp = make([]uint64, numInsts)
		sc.tables = make([]throughput.UnitTable, numInsts)
		sc.unitFp = make([]uint64, numInsts)
		sc.unit = make([][]portmap.MassTerm, numInsts)
	}
	if sc.k != numPorts {
		sc.k = numPorts
		clear(sc.tblFp) // unit terms are port-independent and stay valid
	}
}

// tableFor returns instruction inst's unit table under m, rebuilding it
// only if the cached table was built from a different decomposition.
func (sc *evalScratch) tableFor(m *portmap.Mapping, inst int) *throughput.UnitTable {
	t := &sc.tables[inst]
	if fp := m.Fingerprint(inst); sc.tblFp[inst] != fp {
		throughput.BuildUnitTable(t, m.Decomp[inst], sc.k)
		sc.tblFp[inst] = fp
	}
	return t
}

// unitFor returns instruction inst's pre-flattened unit mass terms (its
// µop decomposition with Mass = µop count), rebuilding only on
// fingerprint change.
func (sc *evalScratch) unitFor(m *portmap.Mapping, inst int) []portmap.MassTerm {
	fp := m.Fingerprint(inst)
	if sc.unitFp[inst] == fp {
		return sc.unit[inst]
	}
	u := sc.unit[inst][:0]
	for _, uc := range m.Decomp[inst] {
		u = append(u, portmap.MassTerm{Ports: uc.Ports, Mass: float64(uc.Count)})
	}
	sc.unit[inst] = u
	sc.unitFp[inst] = fp
	return u
}

// Adaptive memo sizing (ServiceOptions.MemoEntries == 0): the table
// starts at the floor and quadruples — up to the ceiling — whenever a
// traffic window records more misses than ¾ of the table's slots, the
// signature of distinct keys churning through a too-small direct-mapped
// cache. Small inference runs stay at a few KiB; population-scale runs
// grow to collision-free sizes within a generation or two. Resizing
// discards the old table's entries, which costs only recomputation:
// memoized values are exact, so results are bit-identical at any size.
const (
	autoMemoFloor      = 1 << 12
	autoMemoCeil       = 1 << 20
	autoMemoGrowFactor = 4
)

// NewService compiles the measured experiment set into a Service.
func NewService(set *exp.Set, opts ServiceOptions) (*Service, error) {
	if set == nil || set.NumInsts == 0 {
		return nil, errors.New("engine: empty instruction set")
	}
	if len(set.Measurements) == 0 {
		return nil, errors.New("engine: no measurements")
	}
	workers := Workers(opts.Workers)
	s := &Service{
		workers:  workers,
		numInsts: set.NumInsts,
		pred:     opts.Predictor,
		offs:     make([]int32, 1, len(set.Measurements)+1),
		meas:     make([]float64, 0, len(set.Measurements)),
		instExps: make([][]int32, set.NumInsts),
		workerSc: make([]evalScratch, workers),
	}
	for i, m := range set.Measurements {
		if m.Throughput <= 0 {
			return nil, fmt.Errorf("engine: measurement %d has non-positive throughput %g", i, m.Throughput)
		}
		for _, t := range m.Exp {
			if t.Inst < 0 || t.Inst >= set.NumInsts {
				return nil, fmt.Errorf("engine: measurement %d references instruction %d outside 0..%d",
					i, t.Inst, set.NumInsts-1)
			}
			if t.Count < 0 {
				return nil, fmt.Errorf("engine: measurement %d has negative count %d for instruction %d",
					i, t.Count, t.Inst)
			}
		}
		s.terms = append(s.terms, m.Exp...)
		s.offs = append(s.offs, int32(len(s.terms)))
		s.meas = append(s.meas, m.Throughput)
	}

	// Inverted index: experiments are visited in order, so each list is
	// sorted; consecutive-duplicate suppression handles instructions
	// appearing in several terms of one (un-normalized) experiment.
	for i := range s.meas {
		for _, t := range s.experiment(i) {
			lst := s.instExps[t.Inst]
			if len(lst) == 0 || lst[len(lst)-1] != int32(i) {
				s.instExps[t.Inst] = append(lst, int32(i))
			}
		}
	}

	if opts.MemoEntries >= 0 && opts.Predictor == nil {
		entries := opts.MemoEntries
		if entries == 0 {
			entries = autoMemoFloor
			s.memoAuto = true
			s.memoMax = autoMemoCeil
			// A warm start should not begin with the seeded entries
			// evicting each other in a floor-sized table: open with
			// room for them (adaptive growth takes over from there).
			for entries < autoMemoCeil && entries < 2*len(opts.MemoWarm) {
				entries *= autoMemoGrowFactor
			}
		}
		t := newMemoTable(entries)
		if len(opts.MemoWarm) > 0 {
			s.warmEntries = t.t.LoadEntries(opts.MemoWarm)
			s.warmKeys = make(map[uint64]struct{}, len(opts.MemoWarm))
			for _, e := range opts.MemoWarm {
				if e.Key != 0 {
					s.warmKeys[e.Key] = struct{}{}
				}
			}
		}
		s.memo.Store(t)
		s.expSalt = make([]uint64, len(s.meas))
		for i := range s.expSalt {
			s.expSalt[i] = portmap.CombineFingerprints(0xa0761d6478bd642f, uint64(i)+1)
		}
	}
	if opts.FitCacheEntries > 0 {
		s.fitCache = cachetable.New(opts.FitCacheEntries)
		s.fitCache.LoadEntries(opts.FitCacheWarm)
	}
	return s, nil
}

// FitnessCacheGet looks a candidate up in the cross-generation fitness
// cache by its whole-mapping fingerprint (portmap.Mapping.FingerprintAll)
// and returns the memoized Davg. The volume is not stored: it is an
// exact integer recomputed in O(#µops) by the caller (Mapping.Volume),
// far cheaper than one throughput prediction. Lookups are counted in
// CacheStats.FitCacheHits/FitCacheMisses; with the cache disabled every
// lookup is a (free, uncounted) miss.
func (s *Service) FitnessCacheGet(fp uint64) (float64, bool) {
	if s.fitCache == nil {
		return 0, false
	}
	if fp == 0 {
		fp = 1 // FingerprintAll never returns 0, but keep the key contract local
	}
	v, ok := s.fitCache.Get(fp)
	if !ok {
		s.fitMisses.Add(1)
		return 0, false
	}
	s.fitHits.Add(1)
	return math.Float64frombits(v), true
}

// FitnessCachePut stores a freshly evaluated candidate's Davg under its
// whole-mapping fingerprint. The stored float is exactly what a future
// evaluation would produce, so a later hit is bit-identical to
// re-evaluating.
func (s *Service) FitnessCachePut(fp uint64, davg float64) {
	if s.fitCache == nil {
		return
	}
	if fp == 0 {
		fp = 1
	}
	s.fitCache.Put(fp, math.Float64bits(davg))
}

// MemoSnapshot returns the memo's live entries for persistence
// (engine.SaveMemo → internal/cachestore). Call at a quiesce point —
// after a run completes — never concurrently with evaluation (see
// cachetable.Snapshot). Returns nil when the memo is disabled.
func (s *Service) MemoSnapshot() []cachetable.Entry {
	t := s.memo.Load()
	if t == nil {
		return nil
	}
	return t.t.Snapshot()
}

// FitCacheSnapshot returns the cross-generation fitness cache's live
// entries for persistence (engine.SaveFitCache alongside an evolution
// checkpoint). Like MemoSnapshot, call only at a quiesce point. Returns
// nil when the cache is disabled.
func (s *Service) FitCacheSnapshot() []cachetable.Entry {
	if s.fitCache == nil {
		return nil
	}
	return s.fitCache.Snapshot()
}

// maybeGrowMemo is the adaptive-sizing decision point, called after each
// batch (EvaluateAll/NewState): if the traffic window since the last
// decision produced more misses than ¾ of the current table, the table
// is too small for the workload's distinct-key set and is replaced by a
// larger empty one. The CAS on the window marker makes concurrent
// callers elect a single grower.
func (s *Service) maybeGrowMemo() {
	if !s.memoAuto {
		return
	}
	t := s.memo.Load()
	if t == nil || t.size() >= s.memoMax {
		return
	}
	misses := s.memoMisses.Load()
	last := s.missesAtGrow.Load()
	if misses-last <= int64(t.size())*3/4 {
		return
	}
	if !s.missesAtGrow.CompareAndSwap(last, misses) {
		return
	}
	size := t.size() * autoMemoGrowFactor
	if size > s.memoMax {
		size = s.memoMax
	}
	// CAS on the table itself: a concurrent grower that already replaced
	// t must not be overwritten with a table sized from the stale load
	// (that would discard a populated, possibly larger table).
	if s.memo.CompareAndSwap(t, newMemoTable(size)) {
		s.memoResizes.Add(1)
	}
}

// NumExperiments returns the number of measurements the service
// evaluates against.
func (s *Service) NumExperiments() int { return len(s.meas) }

// ExperimentsWith returns how many experiments contain instruction inst
// (the cost of one EvaluateDelta probe, in throughput predictions).
func (s *Service) ExperimentsWith(inst int) int { return len(s.instExps[inst]) }

// Evaluations returns the number of Davg computations performed so far
// (the paper's cost metric for the bottleneck algorithm's speed).
func (s *Service) Evaluations() int { return int(s.evals.Load()) }

// Stats returns a snapshot of the evaluation counters.
func (s *Service) Stats() CacheStats {
	st := CacheStats{
		Evaluations:             s.evals.Load(),
		DeltaEvaluations:        s.deltaEvals.Load(),
		MemoHits:                s.memoHits.Load(),
		MemoMisses:              s.memoMisses.Load(),
		DeltaExperimentsSkipped: s.deltaSkipped.Load(),
		MemoResizes:             s.memoResizes.Load(),
		MemoWarmEntries:         int64(s.warmEntries),
		MemoWarmHits:            s.memoWarmHits.Load(),
		FitCacheHits:            s.fitHits.Load(),
		FitCacheMisses:          s.fitMisses.Load(),
	}
	if t := s.memo.Load(); t != nil {
		st.MemoEntries = int64(t.size())
	}
	if s.fitCache != nil {
		st.FitCacheEntries = int64(s.fitCache.Len())
	}
	return st
}

// experiment returns the i-th pre-flattened experiment without copying.
func (s *Service) experiment(i int) portmap.Experiment {
	return portmap.Experiment(s.terms[s.offs[i]:s.offs[i+1]])
}

// expKey returns experiment i's memo key under mapping m: a hash of the
// experiment's identity (salt) and the decomposition fingerprints of its
// instructions. Two mappings that agree on the decompositions of the
// experiment's instructions produce the same key — and the same
// throughput.
func (s *Service) expKey(m *portmap.Mapping, i int) uint64 {
	key := s.expSalt[i]
	for _, t := range s.terms[s.offs[i]:s.offs[i+1]] {
		key = portmap.CombineFingerprints(key, m.Fingerprint(t.Inst))
	}
	if key == 0 {
		key = 1 // 0 would read an empty memo slot as a hit
	}
	return key
}

// predictOne predicts experiment i under m on the fast path, through
// memo table t when non-nil (the caller loads the table once per
// candidate, so one growth swap cannot split a candidate's lookups
// between tables). Memo misses evaluate via the per-instruction
// subset-sum tables (or, for wide port universes, the pre-flattened unit
// terms) in sc, which must have been ensured for m. All three routes are
// bit-identical to ThroughputOf.
func (s *Service) predictOne(sc *evalScratch, t *memoTable, m *portmap.Mapping, i int) float64 {
	if t == nil {
		return sc.ev.ThroughputOf(m, s.experiment(i))
	}
	key := s.expKey(m, i)
	if v, ok := t.get(key); ok {
		sc.hits++
		if s.warmKeys != nil {
			if _, warm := s.warmKeys[key]; warm {
				sc.warm++
			}
		}
		return v
	}
	sc.miss++
	var v float64
	if m.NumPorts <= throughput.MaxUnitTablePorts {
		sc.tparts = sc.tparts[:0]
		for _, t := range s.experiment(i) {
			sc.tparts = append(sc.tparts, throughput.TablePart{Unit: sc.tableFor(m, t.Inst), Scale: float64(t.Count)})
		}
		v = sc.ev.BottleneckTables(sc.tparts, m.NumPorts)
	} else {
		sc.parts = sc.parts[:0]
		for _, t := range s.experiment(i) {
			sc.parts = append(sc.parts, throughput.Part{Terms: sc.unitFor(m, t.Inst), Scale: float64(t.Count)})
		}
		v = sc.ev.BottleneckParts(sc.parts)
	}
	t.put(key, v)
	return v
}

// davgFast computes Davg(m) on the fast path, optionally capturing the
// per-experiment predictions into preds (len(preds) == NumExperiments).
func (s *Service) davgFast(sc *evalScratch, m *portmap.Mapping, preds []float64) float64 {
	t := s.memo.Load()
	if t != nil {
		sc.ensure(s.numInsts, m.NumPorts)
	}
	sc.hits, sc.miss = 0, 0
	sum := 0.0
	for i, meas := range s.meas {
		pred := s.predictOne(sc, t, m, i)
		if preds != nil {
			preds[i] = pred
		}
		sum += math.Abs(pred-meas) / meas
	}
	s.flushMemoCounters(sc)
	return sum / float64(len(s.meas))
}

// flushMemoCounters folds the scratch's local memo counters into the
// shared stats (batched per candidate to keep atomics off the per-
// experiment path).
func (s *Service) flushMemoCounters(sc *evalScratch) {
	if sc.hits != 0 {
		s.memoHits.Add(sc.hits)
	}
	if sc.miss != 0 {
		s.memoMisses.Add(sc.miss)
	}
	if sc.warm != 0 {
		s.memoWarmHits.Add(sc.warm)
	}
	sc.hits, sc.miss, sc.warm = 0, 0, 0
}

// davgGeneric computes Davg(m) through an arbitrary Predictor,
// optionally capturing the per-experiment predictions into preds.
func (s *Service) davgGeneric(m *portmap.Mapping, preds []float64) (float64, error) {
	sum := 0.0
	for i, meas := range s.meas {
		pred, err := s.pred.Predict(m, s.experiment(i))
		if err != nil {
			return 0, fmt.Errorf("engine: %s on experiment %d: %w", s.pred.Name(), i, err)
		}
		if preds != nil {
			preds[i] = pred
		}
		sum += math.Abs(pred-meas) / meas
	}
	return sum / float64(len(s.meas)), nil
}

// getScratch draws a reusable scratch for concurrent single-candidate
// evaluation; putScratch returns it.
func (s *Service) getScratch() *evalScratch {
	sc, _ := s.pool.Get().(*evalScratch)
	if sc == nil {
		sc = new(evalScratch)
	}
	return sc
}

func (s *Service) putScratch(sc *evalScratch) { s.pool.Put(sc) }

// Evaluate computes the fitness of a single mapping. It is safe for
// concurrent use and counts as one fitness evaluation.
func (s *Service) Evaluate(m *portmap.Mapping) (Fitness, error) {
	s.evals.Add(1)
	if s.pred != nil {
		d, err := s.davgGeneric(m, nil)
		return Fitness{Davg: d, Volume: m.Volume()}, err
	}
	sc := s.getScratch()
	f := Fitness{Davg: s.davgFast(sc, m, nil), Volume: m.Volume()}
	s.putScratch(sc)
	s.maybeGrowMemo()
	return f, nil
}

// EvaluateAll computes the fitness of every mapping in ms in parallel,
// writing results into out (len(out) must equal len(ms)). Cancellation
// is honored between candidates: once ctx is done, no further
// candidates start and the typed interruption error (runctrl.ErrCanceled
// / runctrl.ErrDeadline) is returned; out is then partially filled and
// must be discarded — the caller resumes from its last consistent
// state, which for the evolutionary loop is the previous generation.
func (s *Service) EvaluateAll(ctx context.Context, ms []*portmap.Mapping, out []Fitness) error {
	if len(out) != len(ms) {
		return fmt.Errorf("engine: output length %d does not match batch length %d", len(out), len(ms))
	}
	s.evals.Add(int64(len(ms)))
	if s.pred == nil {
		err := ForEachWorkerCtx(ctx, len(ms), s.workers, func(w, i int) {
			out[i] = Fitness{Davg: s.davgFast(&s.workerSc[w], ms[i], nil), Volume: ms[i].Volume()}
		})
		s.maybeGrowMemo()
		return err
	}
	return ForEachErrCtx(ctx, len(ms), s.workers, func(i int) error {
		d, err := s.davgGeneric(ms[i], nil)
		if err != nil {
			return err
		}
		out[i] = Fitness{Davg: d, Volume: ms[i].Volume()}
		return nil
	})
}

// BatchEvaluator is a serial batch-evaluation handle with its own private
// scratch. Where Service.EvaluateAll runs one batch at a time over the
// shared per-worker scratches, any number of BatchEvaluators may evaluate
// concurrently against the same Service — each island of an island-model
// run owns one and evaluates its sub-population on its own goroutine,
// while still sharing the Service's lock-free throughput memo and
// cross-generation fitness cache (both are bit-exact pure-function
// caches, so sharing never changes results). A BatchEvaluator itself is
// not safe for concurrent use.
//
//pmevo:serial
type BatchEvaluator struct {
	svc *Service
	sc  evalScratch
}

// NewBatchEvaluator returns a serial evaluation handle for this Service.
func (s *Service) NewBatchEvaluator() *BatchEvaluator {
	return &BatchEvaluator{svc: s}
}

// EvaluateAll computes the fitness of every mapping in ms serially on the
// calling goroutine, writing results into out (len(out) must equal
// len(ms)). Results are bit-identical to Service.EvaluateAll.
// Cancellation is honored between candidates, with the same partial-out
// contract as Service.EvaluateAll.
func (b *BatchEvaluator) EvaluateAll(ctx context.Context, ms []*portmap.Mapping, out []Fitness) error {
	s := b.svc
	if len(out) != len(ms) {
		return fmt.Errorf("engine: output length %d does not match batch length %d", len(out), len(ms))
	}
	s.evals.Add(int64(len(ms)))
	if s.pred == nil {
		var err error
		for i, m := range ms {
			if err = runctrl.Check(ctx); err != nil {
				break
			}
			out[i] = Fitness{Davg: s.davgFast(&b.sc, m, nil), Volume: m.Volume()}
		}
		s.maybeGrowMemo()
		return err
	}
	for i, m := range ms {
		if err := runctrl.Check(ctx); err != nil {
			return err
		}
		d, err := s.davgGeneric(m, nil)
		if err != nil {
			return err
		}
		out[i] = Fitness{Davg: d, Volume: m.Volume()}
	}
	return nil
}
