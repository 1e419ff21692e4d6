// Package pmevo is the public facade of the PMEvo reproduction: portable
// inference of port mappings for out-of-order processors by evolutionary
// optimization (Ritter & Hack, PLDI 2020).
//
// The library infers a processor's port mapping — which execution ports
// can run each instruction, via which µops — purely from throughput
// measurements of short, dependency-free instruction sequences. No
// hardware performance counters are required, which makes the approach
// portable across vendors.
//
// # Quick start
//
//	proc, _ := pmevo.Processor("SKL")          // a simulated Skylake-like core
//	harness, _ := pmevo.NewSimMeasurer(proc)   // measures experiments on it
//	cfg := pmevo.DefaultConfig(proc.Config.NumPorts)
//	result, _ := pmevo.Infer(context.Background(), proc.ISA, harness, cfg)
//	fmt.Println(result.Mapping)
//
// Real hardware can be targeted by implementing the one-method Measurer
// interface with a driver that runs the §4.2 measurement loops on
// silicon; everything else is unchanged.
//
// The facade re-exports the most important types; the full machinery
// lives in the internal packages (see DESIGN.md for the map).
package pmevo

import (
	"context"

	"pmevo/internal/core"
	"pmevo/internal/engine"
	"pmevo/internal/evo"
	"pmevo/internal/exp"
	"pmevo/internal/isa"
	"pmevo/internal/measure"
	"pmevo/internal/portmap"
	"pmevo/internal/throughput"
	"pmevo/internal/uarch"
)

// Experiment is a multiset of instructions whose steady-state throughput
// is measured or predicted, identified by dense instruction-form IDs.
type Experiment = portmap.Experiment

// InstCount is one term of an Experiment.
type InstCount = portmap.InstCount

// Mapping is a port mapping in the three-level model (instructions →
// µops → ports).
type Mapping = portmap.Mapping

// PortSet is a set of execution ports (one bit per port).
type PortSet = portmap.PortSet

// ISA describes the instruction forms under test.
type ISA = isa.ISA

// Form is one instruction form (mnemonic plus typed operands).
type Form = isa.Form

// Measurer measures the steady-state throughput of an experiment in
// cycles per experiment instance. measure.Harness implements it against
// the simulated processors; implement it yourself to target real
// hardware.
type Measurer = exp.Measurer

// BatchMeasurer is an optional Measurer extension for backends that can
// measure a whole batch at once; the pipeline uses it when available.
type BatchMeasurer = exp.BatchMeasurer

// Predictor is the unified throughput-engine interface: it predicts the
// steady-state throughput of experiments under a port mapping, single
// or batched, and is safe for concurrent use. Engines are selected by
// name with EngineByName; the batched PredictAll form fans out over a
// worker pool.
type Predictor = engine.Predictor

// Config configures an inference run.
type Config = core.Config

// Result is the outcome of an inference run.
type Result = core.Result

// EvoOptions configures the evolutionary algorithm inside Config. Set
// Islands > 1 to shard the population into concurrently evolving
// sub-populations with periodic ring migration; with a fixed Seed the
// result is reproducible regardless of Workers, and Islands <= 1
// reproduces the single-population algorithm bit-exactly.
type EvoOptions = evo.Options

// CacheStats reports the fitness engine's evaluation counters after a
// run: evaluations, fast-path kernel calls and delta evaluations (see
// Result.Evo.CacheStats).
type CacheStats = engine.CacheStats

// VirtualProcessor is one of the simulated evaluation machines
// (SKL, ZEN, A72).
type VirtualProcessor = uarch.Processor

// Analysis is a port-pressure report for an experiment under a mapping.
type Analysis = throughput.Analysis

// DefaultConfig returns a medium-scale inference configuration for a
// machine with the given number of ports.
func DefaultConfig(numPorts int) Config { return core.DefaultConfig(numPorts) }

// ErrCanceled and ErrDeadline are the typed interruption errors every
// long-running entry point returns when its context is canceled or its
// deadline expires (match with errors.Is). An interrupted Infer whose
// evolutionary search had a best-so-far mapping returns it alongside
// the error; see core.Infer.
var (
	ErrCanceled = evo.ErrCanceled
	ErrDeadline = evo.ErrDeadline
)

// Interrupted reports whether err is a cancellation or deadline
// interruption (as opposed to a real failure).
func Interrupted(err error) bool { return evo.Interrupted(err) }

// Infer runs the full PMEvo pipeline (experiment generation, throughput
// measurement, congruence filtering, evolutionary optimization, local
// search) for the given ISA against the measurer. Cancellation and
// deadlines on ctx are honored at every stage: an interruption during
// the evolutionary search returns ErrCanceled/ErrDeadline along with a
// Result built from the best mapping found so far (check Interrupted
// and decide whether to keep it); EvoOptions.CheckpointDir/Resume make
// the search crash-safe and resumable.
func Infer(ctx context.Context, a *ISA, m Measurer, cfg Config) (*Result, error) {
	return core.Infer(ctx, a, m, cfg)
}

// Throughput computes the steady-state throughput of an experiment
// under a port mapping with the bottleneck simulation algorithm (paper
// §4.5), in cycles per experiment instance.
func Throughput(m *Mapping, e Experiment) float64 { return throughput.OfExperiment(m, e) }

// EngineNames returns the names of the selectable throughput engines:
// "bottleneck" (the production §4.5 simulation algorithm), "lp" (the
// Definition 3 linear program), "union" and "naive" (ablation
// variants).
func EngineNames() []string { return engine.Names() }

// EngineByName returns the named throughput engine; the empty string
// selects the default (bottleneck) engine.
func EngineByName(name string) (Predictor, error) { return engine.ByName(name) }

// Analyze computes an optimal port allocation for an experiment under a
// mapping: throughput, per-port load, and the bottleneck port set.
func Analyze(m *Mapping, e Experiment) (*Analysis, error) { return throughput.Analyze(m, e) }

// Processors returns the three simulated evaluation machines of the
// paper's Table 1 (SKL, ZEN, A72).
func Processors() []*VirtualProcessor { return uarch.All() }

// Processor returns the simulated machine with the given name
// ("SKL", "ZEN", or "A72").
func Processor(name string) (*VirtualProcessor, error) { return uarch.ByName(name) }

// NewSimMeasurer builds a measurement harness (paper §4.2: register
// allocation, unrolling, steady-state loops, noise, median-of-k) that
// measures experiments on the given simulated processor.
func NewSimMeasurer(proc *VirtualProcessor) (Measurer, error) {
	return measure.NewHarness(proc, measure.DefaultOptions())
}

// SyntheticX86 returns the 310-form x86-64-like instruction table used
// by the SKL and ZEN virtual processors.
func SyntheticX86() *ISA { return isa.SyntheticX86() }

// SyntheticARM returns the 390-form ARMv8-A-like instruction table used
// by the A72 virtual processor.
func SyntheticARM() *ISA { return isa.SyntheticARM() }
