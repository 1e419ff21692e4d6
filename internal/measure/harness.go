package measure

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"pmevo/internal/engine"
	"pmevo/internal/isa"
	"pmevo/internal/machine"
	"pmevo/internal/portmap"
	"pmevo/internal/uarch"
)

// Options configures the measurement harness.
type Options struct {
	// UnrollLength is the target loop body length in instructions.
	// The paper found 50 appropriate for all evaluated architectures
	// (§4.2). The body is the smallest whole number of experiment
	// repetitions reaching this length.
	UnrollLength int
	// LoopTimeMS is the wall-clock time each measured loop should run;
	// the paper uses 10 ms. It determines the simulated benchmarking
	// cost (Table 2), not the simulation effort.
	LoopTimeMS float64
	// Repetitions is the number of measurements whose median is
	// reported (§4.2: "median over multiple such measurements").
	Repetitions int
	// NoiseSigma is the relative standard deviation of the multiplicative
	// Gaussian noise modeling clock-frequency fluctuations.
	NoiseSigma float64
	// WarmupIters and MeasureIters bound the simulated loop iterations
	// used to estimate the steady state.
	WarmupIters  int
	MeasureIters int
	// CompileOverheadS is the per-measurement cost of compiling and
	// launching the benchmark program on the real system; it dominates
	// the paper's multi-hour benchmarking times and is accounted for in
	// the simulated benchmarking cost.
	CompileOverheadS float64
	// Seed seeds the noise generator.
	Seed int64
	// Pools overrides the register pool sizes (zero value: ISA default).
	Pools PoolSizes
	// DisableSimCache selects the reference side of every twin check:
	// each experiment's loop body is built by the reference BuildLoop,
	// not in a pooled loop arena, and simulated on its own, bypassing the
	// shared kernel-simulation cache (the noiseless steady-state cycles
	// per canonical loop body; see simcache.go) and MeasureAll's
	// per-batch deduplication. Measurement results are bit-identical
	// either way, so a twin check with the knob set also checks the
	// arena against the reference builder.
	DisableSimCache bool
}

// DefaultOptions returns the paper's measurement parameters.
func DefaultOptions() Options {
	return Options{
		UnrollLength:     50,
		LoopTimeMS:       10,
		Repetitions:      5,
		NoiseSigma:       0.004,
		WarmupIters:      30,
		MeasureIters:     120,
		CompileOverheadS: 1.0,
		Seed:             1,
	}
}

// Harness measures experiment throughputs on a virtual processor.
// It implements core.Measurer.
type Harness struct {
	proc *uarch.Processor
	mach *machine.Machine
	opts Options
	rng  *rand.Rand

	measurements int       // number of Measure calls, for cost accounting
	reps         []float64 // applyNoise's repetitions, Options.Repetitions long

	arenas sync.Pool // *loopArena

	// Kernel-cache counters; atomic because MeasureAll simulates
	// concurrently. simWarmHits is the subset of simHits served by
	// entries LoadSimCache seeded from disk (simcache.go).
	simHits     atomic.Int64
	simMisses   atomic.Int64
	simWarmHits atomic.Int64
}

// NewHarness builds a harness for the given processor.
func NewHarness(proc *uarch.Processor, opts Options) (*Harness, error) {
	if opts.UnrollLength <= 0 {
		return nil, fmt.Errorf("measure: unroll length must be positive")
	}
	if opts.Repetitions <= 0 {
		return nil, fmt.Errorf("measure: repetitions must be positive")
	}
	if opts.MeasureIters <= 0 || opts.WarmupIters < 0 {
		return nil, fmt.Errorf("measure: invalid iteration counts")
	}
	if opts.Pools == (PoolSizes{}) {
		opts.Pools = DefaultPoolSizes(proc.ISA)
	}
	mach, err := proc.Machine()
	if err != nil {
		return nil, err
	}
	return &Harness{
		proc: proc,
		mach: mach,
		opts: opts,
		//pmevo:allow detrand -- seeded per-harness noise stream: draws happen in experiment order (MeasureAll contract), reproducible from Options.Seed
		rng:  rand.New(rand.NewSource(opts.Seed)),
		reps: make([]float64, opts.Repetitions),
	}, nil
}

// Processor returns the processor under test.
func (h *Harness) Processor() *uarch.Processor { return h.proc }

// maxExperimentInsts bounds an experiment's total instruction count,
// so a forged or overflowed count is an error instead of an
// out-of-memory crash. It is far above every experiment the repository
// builds (the largest is a 58-instruction weighted pair) and still
// admits hand-written stress kernels such as pmevo-sim's
// add_r64_r64:100000.
const maxExperimentInsts = 1 << 17

var errEmptyExperiment = errors.New("measure: empty experiment")

// BuildConcreteLoop expands the experiment into an unrolled, operand-
// allocated loop body of concrete instructions, returning the body and
// the number of experiment instances per loop iteration. This is the
// input for both the simulator (via ToMachineInsts) and the C emitter.
// A negative count, or more than maxExperimentInsts instructions in
// total, is an error.
//
// BuildConcreteLoop and BuildLoop are the reference builders. Measurement
// builds the same body in a pooled loop arena (loopArena.build) unless
// Options.DisableSimCache routes it through BuildLoop.
func (h *Harness) BuildConcreteLoop(e portmap.Experiment) ([]Inst, int, error) {
	if err := checkCounts(e); err != nil {
		return nil, 0, err
	}
	e = e.Normalize()
	if len(e) == 0 {
		return nil, 0, errEmptyExperiment
	}
	var seqForms []*isa.Form
	for _, t := range e {
		if t.Inst < 0 || t.Inst >= h.proc.ISA.NumForms() {
			return nil, 0, fmt.Errorf("measure: instruction %d out of range", t.Inst)
		}
		for j := 0; j < t.Count; j++ {
			seqForms = append(seqForms, h.proc.ISA.Form(t.Inst))
		}
	}
	instances := (h.opts.UnrollLength + len(seqForms) - 1) / len(seqForms)
	alloc, err := NewAllocator(h.opts.Pools)
	if err != nil {
		return nil, 0, err
	}
	var body []Inst
	for k := 0; k < instances; k++ {
		insts, err := alloc.InstantiateSequence(seqForms)
		if err != nil {
			return nil, 0, err
		}
		body = append(body, insts...)
	}
	return body, instances, nil
}

// checkCounts rejects a negative count and an experiment of more than
// maxExperimentInsts instructions, on the raw terms (overflow-safely),
// before anything is built.
func checkCounts(e portmap.Experiment) error {
	total := 0
	for _, t := range e {
		if t.Count < 0 {
			return fmt.Errorf("measure: instruction %d has negative count %d", t.Inst, t.Count)
		}
		if t.Count > maxExperimentInsts-total {
			return fmt.Errorf("measure: experiment has more than %d instructions", maxExperimentInsts)
		}
		total += t.Count
	}
	return nil
}

// BuildLoop is BuildConcreteLoop lowered to the simulator representation.
func (h *Harness) BuildLoop(e portmap.Experiment) ([]machine.Inst, int, error) {
	body, instances, err := h.BuildConcreteLoop(e)
	if err != nil {
		return nil, 0, err
	}
	return ToMachineInsts(body), instances, nil
}

// EmitProgram renders the complete C benchmark program for an experiment
// as the paper's harness would generate it, using the loop bound that
// reaches the configured loop time at the processor's clock.
func (h *Harness) EmitProgram(e portmap.Experiment) (string, error) {
	body, instances, err := h.BuildConcreteLoop(e)
	if err != nil {
		return "", err
	}
	cyclesPerIter, err := h.steadyState(ToMachineInsts(body))
	if err != nil {
		return "", err
	}
	bound := h.LoopBound(cyclesPerIter)
	return EmitC(h.proc.ISA.Name, body, bound, instances, h.proc.ClockGHz), nil
}

// Measure returns the throughput t*(e) of the experiment in cycles per
// experiment instance, as the median over the configured repetitions
// with multiplicative noise (Definition 1; §4.2 measurement formula
// t*(e) = time × frequency / #instances).
func (h *Harness) Measure(e portmap.Experiment) (float64, error) {
	perInstance, err := h.simulate(e)
	if err != nil {
		return 0, err
	}
	return h.applyNoise(perInstance), nil
}

// simulate runs the deterministic part of a measurement: loop
// construction and the steady-state simulation — through the shared
// kernel cache, which is keyed on the canonical body and so deduplicates
// count-scaled experiment aliases and repeats across experiment sets —
// yielding the noise-free cycles per experiment instance. The body is
// built in a pooled loop arena, or by the reference BuildLoop when the
// cache is disabled. It touches only atomic and pooled harness state, so
// simulations of independent experiments may run concurrently (the
// simulated machine is immutable).
func (h *Harness) simulate(e portmap.Experiment) (float64, error) {
	var body []machine.Inst
	var instances int
	var err error
	if h.opts.DisableSimCache {
		body, instances, err = h.BuildLoop(e)
	} else {
		a := h.arena()
		defer h.arenas.Put(a)
		body, instances, err = a.build(h, e)
	}
	if err != nil {
		return 0, err
	}
	cyclesPerIter, err := h.steadyState(body)
	if err != nil {
		return 0, err
	}
	return cyclesPerIter / float64(instances), nil
}

// arena takes a loop arena from the harness pool; return it with
// h.arenas.Put once the body built in it is no longer used.
func (h *Harness) arena() *loopArena {
	a, _ := h.arenas.Get().(*loopArena)
	if a == nil {
		a = new(loopArena)
	}
	return a
}

// applyNoise draws the configured repetitions of multiplicative
// measurement noise and returns their median (§4.2). It consumes the
// harness noise generator, accounting and repetition buffer, so calls
// must occur serially, in measurement order.
func (h *Harness) applyNoise(perInstance float64) float64 {
	reps := h.reps
	for i := range reps {
		noise := 1.0
		if h.opts.NoiseSigma > 0 {
			noise = 1 + h.rng.NormFloat64()*h.opts.NoiseSigma
			if noise < 0.5 {
				noise = 0.5
			}
		}
		reps[i] = perInstance * noise
	}
	slices.Sort(reps)
	h.measurements++
	return reps[len(reps)/2]
}

// MeasureAll measures a set of experiments, returning throughputs in
// the same order. The deterministic simulations fan out over all cores;
// noise is then applied sequentially in experiment order, so the result
// is bit-identical to calling Measure in a loop. It implements
// exp.BatchMeasurer.
//
// Cancellation is honored between simulations (never mid-simulation):
// an interrupted batch returns no partial results — measurement batches
// are all-or-nothing, because the harness's noise stream is drawn in
// experiment order and a partial draw would desynchronize later
// measurements. A failed batch returns the error of its lowest-indexed
// failing experiment.
func (h *Harness) MeasureAll(ctx context.Context, es []portmap.Experiment) ([]float64, error) {
	var perInstance []float64
	var err error
	if h.opts.DisableSimCache {
		perInstance, err = h.simulateEach(ctx, es)
	} else {
		perInstance, err = h.simulateBatch(ctx, es)
	}
	if err != nil {
		return nil, err
	}
	for i, v := range perInstance {
		perInstance[i] = h.applyNoise(v)
	}
	return perInstance, nil
}

// simulateEach simulates every experiment of a batch on its own, in
// parallel, through the reference builder: the cache-disabled twin of
// simulateBatch.
func (h *Harness) simulateEach(ctx context.Context, es []portmap.Experiment) ([]float64, error) {
	perInstance := make([]float64, len(es))
	errs := make([]error, len(es))
	if err := engine.ForEachCtx(ctx, len(es), 0, func(i int) {
		perInstance[i], errs[i] = h.simulate(es[i])
	}); err != nil {
		return nil, err
	}
	if err := firstError(errs); err != nil {
		return nil, err
	}
	return perInstance, nil
}

// simulateBatch is simulate for a whole batch with each distinct body
// simulated once, in four phases:
//
//  1. in parallel, build and key every body in pooled arenas;
//  2. serially, in experiment order, resolve each key against an earlier
//     experiment of the batch, then against the kernel cache;
//  3. in parallel, rebuild each missing body and simulate it once;
//  4. serially, in experiment order, store the new entries and count the
//     traffic.
//
// Bodies are not kept between phases: rebuilding the missing ones is
// cheaper than holding a batch of them live. The counters and the
// table's final state depend only on the batch, not on scheduling:
// misses equal the distinct keys the cache lacked, every other
// experiment is a hit, and a hit whose key was seeded from disk is warm,
// in-batch duplicates included.
func (h *Harness) simulateBatch(ctx context.Context, es []portmap.Experiment) ([]float64, error) {
	keys := make([]uint64, len(es))
	instances := make([]int, len(es))
	errs := make([]error, len(es))
	if err := engine.ForEachCtx(ctx, len(es), 0, func(i int) {
		a := h.arena()
		body, n, err := a.build(h, es[i])
		if err == nil {
			keys[i], instances[i] = simKey(h.mach, h.opts.WarmupIters, h.opts.MeasureIters, body), n
		}
		errs[i] = err
		h.arenas.Put(a)
	}); err != nil {
		return nil, err
	}

	cycles := make([]float64, len(es))
	src := make([]int, len(es)) // the experiment whose cycles i shares
	first := make(map[uint64]int, len(es))
	var misses []int
	hits, warmHits := 0, 0
	for i, key := range keys {
		if errs[i] != nil {
			continue
		}
		j, seen := first[key]
		if !seen {
			j = i
			first[key] = i
			v, ok := sharedSimCache.Get(key)
			if !ok {
				src[i] = i
				misses = append(misses, i)
				continue
			}
			cycles[i] = math.Float64frombits(v)
		}
		src[i] = j
		hits++
		if isWarm(key) {
			warmHits++
		}
	}

	if err := engine.ForEachCtx(ctx, len(misses), 0, func(j int) {
		i := misses[j]
		a := h.arena()
		body, _, err := a.build(h, es[i])
		if err == nil {
			cycles[i], err = h.mach.SteadyStateCycles(body, h.opts.WarmupIters, h.opts.MeasureIters)
		}
		errs[i] = err
		h.arenas.Put(a)
	}); err != nil {
		return nil, err
	}
	if err := firstError(errs); err != nil {
		return nil, err
	}

	for _, i := range misses {
		sharedSimCache.Put(keys[i], math.Float64bits(cycles[i]))
	}
	h.record(hits, len(misses), warmHits)
	perInstance := make([]float64, len(es))
	for i := range es {
		perInstance[i] = cycles[src[i]] / float64(instances[i])
	}
	return perInstance, nil
}

// firstError returns the error of the lowest-indexed failed experiment
// of a batch, naming the experiment, or nil.
func firstError(errs []error) error {
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("experiment %d: %w", i, err)
		}
	}
	return nil
}

// Measurements returns the number of Measure calls so far.
func (h *Harness) Measurements() int { return h.measurements }

// SubsetMeasurer adapts a harness to a dense instruction subset:
// experiments use subset indices, and index i is measured as the
// harness ISA's form IDs[i]. It implements exp.BatchMeasurer, so the
// harness's parallel batch path stays reachable through subset
// pipelines.
type SubsetMeasurer struct {
	H   *Harness
	IDs []int
}

func (s SubsetMeasurer) translate(e portmap.Experiment) portmap.Experiment {
	full := make(portmap.Experiment, len(e))
	for i, t := range e {
		full[i] = portmap.InstCount{Inst: s.IDs[t.Inst], Count: t.Count}
	}
	return full
}

// Measure measures one subset-space experiment.
func (s SubsetMeasurer) Measure(e portmap.Experiment) (float64, error) {
	return s.H.Measure(s.translate(e))
}

// MeasureAll measures a batch of subset-space experiments.
func (s SubsetMeasurer) MeasureAll(ctx context.Context, es []portmap.Experiment) ([]float64, error) {
	full := make([]portmap.Experiment, len(es))
	for i, e := range es {
		full[i] = s.translate(e)
	}
	return s.H.MeasureAll(ctx, full)
}

// SimulatedBenchmarkingCost estimates the wall-clock time the measured
// experiments would have taken on the real system: per measurement, one
// compile+launch overhead plus Repetitions timed loops of LoopTimeMS.
// This reproduces the "benchmarking time" row of Table 2.
func (h *Harness) SimulatedBenchmarkingCost() float64 {
	perMeasurement := h.opts.CompileOverheadS + float64(h.opts.Repetitions)*h.opts.LoopTimeMS/1000
	return float64(h.measurements) * perMeasurement
}

// LoopBound returns the iteration count the real system would use so the
// loop runs for LoopTimeMS at the processor's clock, given the observed
// cycles per iteration. It documents the §4.2 loop-bound selection; the
// simulator itself uses the much smaller MeasureIters.
func (h *Harness) LoopBound(cyclesPerIter float64) int {
	if cyclesPerIter <= 0 {
		return 1
	}
	cycles := h.opts.LoopTimeMS / 1000 * h.proc.ClockGHz * 1e9
	n := int(math.Round(cycles / cyclesPerIter))
	if n < 1 {
		n = 1
	}
	return n
}
