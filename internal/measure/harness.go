package measure

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
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
	// DisableSimCache bypasses the shared kernel-simulation cache (the
	// noiseless steady-state cycles per canonical loop body; see
	// simcache.go). Measurement results are bit-identical either way —
	// the knob exists for benchmarking and debugging.
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

	measurements int // number of Measure calls, for cost accounting

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
		rng: rand.New(rand.NewSource(opts.Seed)),
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

// BuildConcreteLoop expands the experiment into an unrolled, operand-
// allocated loop body of concrete instructions, returning the body and
// the number of experiment instances per loop iteration. This is the
// input for both the simulator (via ToMachineInsts) and the C emitter.
// A negative count, or more than maxExperimentInsts instructions in
// total, is an error.
func (h *Harness) BuildConcreteLoop(e portmap.Experiment) ([]Inst, int, error) {
	total := 0
	for _, t := range e {
		if t.Count < 0 {
			return nil, 0, fmt.Errorf("measure: instruction %d has negative count %d", t.Inst, t.Count)
		}
		if t.Count > maxExperimentInsts-total {
			return nil, 0, fmt.Errorf("measure: experiment has more than %d instructions", maxExperimentInsts)
		}
		total += t.Count
	}
	e = e.Normalize()
	if len(e) == 0 {
		return nil, 0, fmt.Errorf("measure: empty experiment")
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
// yielding the noise-free cycles per experiment instance. It touches
// only atomic harness state, so simulations of independent experiments
// may run concurrently (the simulated machine is immutable).
func (h *Harness) simulate(e portmap.Experiment) (float64, error) {
	body, instances, err := h.BuildLoop(e)
	if err != nil {
		return 0, err
	}
	cyclesPerIter, err := h.steadyState(body)
	if err != nil {
		return 0, err
	}
	return cyclesPerIter / float64(instances), nil
}

// applyNoise draws the configured repetitions of multiplicative
// measurement noise and returns their median (§4.2). It consumes the
// harness noise generator and accounting, so calls must occur in
// measurement order.
func (h *Harness) applyNoise(perInstance float64) float64 {
	reps := make([]float64, h.opts.Repetitions)
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
	sort.Float64s(reps)
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
// measurements.
func (h *Harness) MeasureAll(ctx context.Context, es []portmap.Experiment) ([]float64, error) {
	perInstance := make([]float64, len(es))
	errs := make([]error, len(es))
	if err := engine.ForEachCtx(ctx, len(es), 0, func(i int) {
		perInstance[i], errs[i] = h.simulate(es[i])
	}); err != nil {
		return nil, err
	}
	out := make([]float64, len(es))
	for i := range es {
		if errs[i] != nil {
			return nil, fmt.Errorf("experiment %d: %w", i, errs[i])
		}
		out[i] = h.applyNoise(perInstance[i])
	}
	return out, nil
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
