package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"pmevo/internal/exp"
	"pmevo/internal/portmap"
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
	// Workers is the parallelism of each EvaluateAll batch (<= 0:
	// GOMAXPROCS).
	Workers int
	// Predictor selects the throughput engine. nil selects the built-in
	// bottleneck fast path, which reuses evaluator state and unit tables
	// across candidates, bit-identical to Default(); any other engine
	// goes through the generic Predict interface.
	Predictor Predictor
}

// CacheStats is a snapshot of a Service's evaluation counters. The
// delta counters quantify how much redundant work the Service skipped;
// pmevo-bench's fitness experiment reports them.
type CacheStats struct {
	// Evaluations counts Davg computations: every candidate passed to
	// Evaluate/EvaluateAll/NewState plus every EvaluateDelta probe.
	Evaluations int64
	// DeltaEvaluations counts the EvaluateDelta subset.
	DeltaEvaluations int64
	// MemoHits always reads 0: the Service keeps no per-experiment
	// throughput memo. It stays, like MemoEntries and MemoResizes,
	// because perfbench reads it.
	MemoHits int64
	// MemoMisses counts fast-path kernel calls: each count is one
	// experiment predicted on the fast path, whichever kernel predicts
	// it (throughput.BottleneckPair for pairs, BottleneckTables for the
	// other shapes, ThroughputOf above throughput.MaxUnitTablePorts).
	// The generic Predictor path is not counted. perfbench reads it as
	// its kernel-call count.
	MemoMisses int64
	// DeltaExperimentsSkipped counts experiments EvaluateDelta did not
	// have to re-predict because the changed instruction does not occur
	// in them.
	DeltaExperimentsSkipped int64
	// MemoEntries and MemoResizes always read 0 (see MemoHits).
	MemoEntries int64
	MemoResizes int64
	// FitCacheHits and FitCacheMisses always read 0: the Service keeps
	// no cross-generation fitness cache. They stay because perfbench
	// reads them.
	FitCacheHits   int64
	FitCacheMisses int64
}

// Service evaluates candidate port mappings against a fixed measured
// experiment set. It is the fitness-evaluation layer of the evolutionary
// algorithm (§4.4/§4.5). Construction pre-flattens the experiment set
// into contiguous storage and builds an inverted index (instruction →
// experiments containing it); batched evaluation fans out over a worker
// pool whose workers each take reusable evaluator state from the
// Service's free list, so the per-candidate hot loop allocates nothing.
//
// On the fast path every experiment costs one bottleneck kernel call:
// BottleneckPair for the §4.1 pairs, which are nearly all of a measured
// set, and BottleneckTables for every other shape. The unit-table cache
// each scratch carries (see evalScratch) is the only cache.
// The incremental NewState/EvaluateDelta API skips whole predictions:
// re-evaluating after a single-instruction change only re-predicts the
// experiments that contain the changed instruction, turning a
// local-search probe from O(#experiments) into O(#experiments containing
// the instruction).
//
// Both are bit-exact: the unit-table kernel is bit-identical to
// ThroughputOf (tables are keyed by decomposition fingerprint, which
// stands in for decomposition equality at ~2^-64 collision odds), and
// delta evaluation re-accumulates the error sum in experiment order, so
// Davg is bit-identical to a full evaluation.
//
// Evaluate and EvaluateAll may be called concurrently: each call takes
// the scratches it needs from the free list and returns them when done,
// so concurrent batches never share one. Every entry point rejects a
// mapping covering fewer instructions than the experiment set
// references.
type Service struct {
	workers  int
	numInsts int
	pred     Predictor // nil: bottleneck fast path

	// Pre-flattened experiment set: experiment i is
	// terms[offs[i]:offs[i+1]] with measured throughput meas[i]. pair[i]
	// records its shape: two terms with positive counts, a §4.1 pair,
	// which the fast path predicts with throughput.BottleneckPair.
	terms []portmap.InstCount
	offs  []int32
	meas  []float64
	pair  []bool

	// instExps is the inverted index: instExps[i] lists (sorted,
	// deduplicated) the experiments whose multiset contains instruction
	// i. EvaluateDelta re-predicts exactly these.
	instExps [][]int32

	mu   sync.Mutex
	free []*evalScratch // idle scratches, reused by every later call

	evals        atomic.Int64
	deltaEvals   atomic.Int64
	kernelCalls  atomic.Int64
	deltaSkipped atomic.Int64
}

// evalScratch is one worker's reusable evaluation state: the throughput
// evaluator plus per-instruction subset-sum unit tables with their
// per-cardinality maxima, keyed by decomposition fingerprint, so a table
// is (re)built only when an instruction's decomposition actually differs
// from the one this scratch last saw. Every experiment predicted from
// the tables is one kernel call, BottleneckPair or BottleneckTables.
// One goroutine at a time holds a scratch, from taking it off the
// Service's free list until it returns it, or for a FitnessState's
// lifetime. A full evaluation checks every table once per candidate and
// then reads the tables directly, so a table built for a candidate
// serves every experiment naming its instruction. Across the candidates
// of a batch the check almost never hits: recombination makes nearly
// every child decomposition new. The tables pay off on the delta path,
// where a probe changes one instruction and every other table stays; it
// checks the tables of every experiment it re-predicts (see predictOne).
type evalScratch struct {
	ev throughput.Evaluator

	k      int      // port count the tables are built for
	tblFp  []uint64 // fingerprint each table was built from (0: none)
	tables []throughput.UnitTable
	tparts []throughput.TablePart // BottleneckTables' parts (not pairs)
}

// ensure sizes the scratch for the instruction count and invalidates the
// tables if the port universe changed.
func (sc *evalScratch) ensure(numInsts, numPorts int) {
	if len(sc.tblFp) < numInsts {
		sc.tblFp = make([]uint64, numInsts)
		sc.tables = make([]throughput.UnitTable, numInsts)
	}
	if sc.k != numPorts {
		sc.k = numPorts
		clear(sc.tblFp)
	}
}

// tableFor returns instruction inst's unit table under m, rebuilding it
// only if the cached table was built from a different decomposition.
// davgFast calls it once per referenced instruction and candidate;
// predictOne calls it per experiment term.
func (sc *evalScratch) tableFor(m *portmap.Mapping, inst int) *throughput.UnitTable {
	t := &sc.tables[inst]
	if fp := m.Fingerprint(inst); sc.tblFp[inst] != fp {
		throughput.BuildUnitTable(t, m.Decomp[inst], sc.k)
		sc.tblFp[inst] = fp
	}
	return t
}

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
		pair:     make([]bool, 0, len(set.Measurements)),
		instExps: make([][]int32, set.NumInsts),
	}
	for i, m := range set.Measurements {
		if !exp.ValidThroughput(m.Throughput) {
			return nil, fmt.Errorf("engine: measurement %d has throughput %g, want finite and positive", i, m.Throughput)
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
		s.pair = append(s.pair, len(m.Exp) == 2 && m.Exp[0].Count > 0 && m.Exp[1].Count > 0)
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
	return s, nil
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
	return CacheStats{
		Evaluations:             s.evals.Load(),
		DeltaEvaluations:        s.deltaEvals.Load(),
		MemoMisses:              s.kernelCalls.Load(),
		DeltaExperimentsSkipped: s.deltaSkipped.Load(),
	}
}

// experiment returns the i-th pre-flattened experiment without copying.
func (s *Service) experiment(i int) portmap.Experiment {
	return portmap.Experiment(s.terms[s.offs[i]:s.offs[i+1]])
}

// checkCovers rejects a mapping that covers fewer instructions than the
// experiment set references: the fast path would index past its
// decompositions.
func (s *Service) checkCovers(m *portmap.Mapping) error {
	if m.NumInsts() < s.numInsts {
		return fmt.Errorf("engine: mapping covers %d instructions, experiment set needs %d",
			m.NumInsts(), s.numInsts)
	}
	return nil
}

// checkCandidates validates a batch before any candidate is evaluated.
func (s *Service) checkCandidates(ms []*portmap.Mapping, out []Fitness) error {
	if len(out) != len(ms) {
		return fmt.Errorf("engine: output length %d does not match batch length %d", len(out), len(ms))
	}
	for _, m := range ms {
		if err := s.checkCovers(m); err != nil {
			return err
		}
	}
	return nil
}

// predictOne predicts experiment i under m on the fast path with one
// kernel call: predictTables over the per-instruction subset-sum tables
// in sc or, for port universes wider than throughput.MaxUnitTablePorts,
// ThroughputOf. sc must have been ensured for m. The table route is
// bit-identical to ThroughputOf.
//
// predictOne checks the fingerprint of every table it reads, which the
// delta path needs: after a rejected probe the mapping reverts but the
// scratch still holds the probe's table, so a later probe on another
// instruction may share an experiment with the stale one.
func (s *Service) predictOne(sc *evalScratch, m *portmap.Mapping, i int) float64 {
	if m.NumPorts > throughput.MaxUnitTablePorts {
		return sc.ev.ThroughputOf(m, s.experiment(i))
	}
	for _, t := range s.experiment(i) {
		sc.tableFor(m, t.Inst)
	}
	return s.predictTables(sc, m.NumPorts, i)
}

// predictTables predicts experiment i with one kernel call over sc's
// unit tables at k ports, which must be current for every instruction
// the experiment references: a pair (see Service.pair) goes to
// BottleneckPair, any other shape (singletons, triples, zero-count
// terms) to BottleneckTables. Both return the float ThroughputOf does.
func (s *Service) predictTables(sc *evalScratch, k, i int) float64 {
	e := s.experiment(i)
	if s.pair[i] {
		return sc.ev.BottleneckPair(&sc.tables[e[0].Inst], float64(e[0].Count), &sc.tables[e[1].Inst], float64(e[1].Count), k)
	}
	sc.tparts = sc.tparts[:0]
	for _, t := range e {
		sc.tparts = append(sc.tparts, throughput.TablePart{Unit: &sc.tables[t.Inst], Scale: float64(t.Count)})
	}
	return sc.ev.BottleneckTables(sc.tparts, k)
}

// davgFast computes Davg(m) on the fast path with one kernel call per
// experiment, optionally capturing the per-experiment predictions into
// preds (len(preds) == NumExperiments). On the table route it brings
// every referenced instruction's table up to date first, one
// fingerprint check each, so the experiment loop reads the tables
// unchecked through predictTables, the same routine predictOne uses.
func (s *Service) davgFast(sc *evalScratch, m *portmap.Mapping, preds []float64) float64 {
	sc.ensure(s.numInsts, m.NumPorts)
	tables := m.NumPorts <= throughput.MaxUnitTablePorts
	if tables {
		for inst, exps := range s.instExps {
			if len(exps) > 0 {
				sc.tableFor(m, inst)
			}
		}
	}
	sum := 0.0
	for i, meas := range s.meas {
		var pred float64
		if tables {
			pred = s.predictTables(sc, m.NumPorts, i)
		} else {
			pred = s.predictOne(sc, m, i)
		}
		if preds != nil {
			preds[i] = pred
		}
		sum += math.Abs(pred-meas) / meas
	}
	s.kernelCalls.Add(int64(len(s.meas)))
	return sum / float64(len(s.meas))
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

// takeScratches takes n scratches off the free list, making new ones
// once it runs dry; putScratches returns them. Between the two, the
// caller's goroutines own them exclusively.
func (s *Service) takeScratches(n int) []*evalScratch {
	scs := make([]*evalScratch, n)
	s.mu.Lock()
	k := max(0, len(s.free)-n)
	copy(scs, s.free[k:])
	s.free = s.free[:k]
	s.mu.Unlock()
	for i, sc := range scs {
		if sc == nil {
			scs[i] = new(evalScratch)
		}
	}
	return scs
}

func (s *Service) putScratches(scs []*evalScratch) {
	s.mu.Lock()
	s.free = append(s.free, scs...)
	s.mu.Unlock()
}

// Evaluate computes the fitness of a single mapping. It is safe for
// concurrent use and counts as one fitness evaluation.
func (s *Service) Evaluate(m *portmap.Mapping) (Fitness, error) {
	if err := s.checkCovers(m); err != nil {
		return Fitness{}, err
	}
	s.evals.Add(1)
	if s.pred != nil {
		d, err := s.davgGeneric(m, nil)
		return Fitness{Davg: d, Volume: m.Volume()}, err
	}
	scs := s.takeScratches(1)
	f := Fitness{Davg: s.davgFast(scs[0], m, nil), Volume: m.Volume()}
	s.putScratches(scs)
	return f, nil
}

// EvaluateAll computes the fitness of every mapping in ms in parallel
// over up to Workers goroutines, each holding one scratch from the free
// list for the whole batch, and writes results into out (len(out) must
// equal len(ms)). The whole batch is validated before any candidate
// starts. Cancellation is honored between candidates: once ctx is done,
// no further candidates start and the typed interruption error
// (runctrl.ErrCanceled / runctrl.ErrDeadline) is returned; out is then
// partially filled and must be discarded — the caller resumes from its
// last consistent state, which for the evolutionary loop is the
// previous generation.
func (s *Service) EvaluateAll(ctx context.Context, ms []*portmap.Mapping, out []Fitness) error {
	if err := s.checkCandidates(ms, out); err != nil {
		return err
	}
	s.evals.Add(int64(len(ms)))
	if s.pred == nil {
		scs := s.takeScratches(min(s.workers, len(ms)))
		defer s.putScratches(scs)
		return ForEachWorkerCtx(ctx, len(ms), len(scs), func(w, i int) {
			out[i] = Fitness{Davg: s.davgFast(scs[w], ms[i], nil), Volume: ms[i].Volume()}
		})
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
