// Package engine is the batched, parallel throughput-evaluation layer
// shared by every consumer of the throughput model: the evolutionary
// search (fitness evaluation, §4.4), the evaluation figure and table
// generators (§5), and the CLIs.
//
// It provides two abstractions:
//
//   - Predictor: a uniform, concurrency-safe interface over the
//     interchangeable throughput engines (the §4.5 bottleneck simulation
//     algorithm, the Definition-3 linear program, and the
//     union-enumeration variant), with a batched PredictAll form that
//     fans out over a worker pool.
//   - Service: a fitness-evaluation service over a fixed measured
//     experiment set, with pre-flattened experiment storage and
//     reusable evaluator state on one free list, so the hot loop
//     performs no allocation and concurrent batches share no scratch.
//
// All engines agree on all inputs (up to floating-point tolerance);
// this is property-tested in this package and re-checked end to end by
// `pmevo-bench -exp engines`.
package engine

import (
	"fmt"
	"sort"
	"sync"

	"pmevo/internal/portmap"
	"pmevo/internal/throughput"
)

// Predictor predicts the steady-state throughput of experiments under a
// port mapping, in cycles per experiment instance. Implementations are
// safe for concurrent use.
type Predictor interface {
	// Name identifies the engine (e.g. "bottleneck", "lp").
	Name() string
	// Predict returns the throughput of one experiment under m.
	Predict(m *portmap.Mapping, e portmap.Experiment) (float64, error)
	// PredictAll predicts every experiment in es, writing results into
	// out (len(out) must equal len(es)). Implementations parallelize
	// over the batch.
	PredictAll(m *portmap.Mapping, es []portmap.Experiment, out []float64) error
}

var engines = map[string]Predictor{
	"bottleneck": &bottleneckPredictor{},
	"lp":         lpPredictor{},
	"union":      unionPredictor{},
	"naive":      naivePredictor{},
}

// Default returns the production engine: the bottleneck simulation
// algorithm with the subset-sum and union-enumeration optimizations.
func Default() Predictor { return engines["bottleneck"] }

// Names returns the selectable engine names, sorted.
func Names() []string {
	out := make([]string, 0, len(engines))
	for n := range engines {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ByName returns the engine with the given name; the empty string
// selects the default (bottleneck) engine.
func ByName(name string) (Predictor, error) {
	if name == "" {
		return Default(), nil
	}
	if p, ok := engines[name]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("engine: unknown engine %q (have %v)", name, Names())
}

// validate checks that every instruction of e is covered by m.
func validate(m *portmap.Mapping, e portmap.Experiment) error {
	for _, t := range e {
		if t.Inst < 0 || t.Inst >= m.NumInsts() {
			return fmt.Errorf("engine: instruction %d out of range (mapping covers %d)", t.Inst, m.NumInsts())
		}
	}
	return nil
}

// checkBatch validates the out length and every experiment of a batch.
func checkBatch(m *portmap.Mapping, es []portmap.Experiment, out []float64) error {
	if len(out) != len(es) {
		return fmt.Errorf("engine: output length %d does not match batch length %d", len(out), len(es))
	}
	for _, e := range es {
		if err := validate(m, e); err != nil {
			return err
		}
	}
	return nil
}

// predictBatch fans a validated batch out over the worker pool, giving
// each worker its own reusable evaluator, and collects the first error.
func predictBatch(m *portmap.Mapping, es []portmap.Experiment, out []float64,
	predict func(ev *throughput.Evaluator, e portmap.Experiment) (float64, error)) error {
	workers := Workers(0)
	if workers > len(es) {
		workers = len(es)
	}
	evals := make([]throughput.Evaluator, workers)
	return ForEachWorkerErr(len(es), workers, func(w, i int) error {
		v, err := predict(&evals[w], es[i])
		if err != nil {
			return fmt.Errorf("engine: experiment %d: %w", i, err)
		}
		out[i] = v
		return nil
	})
}

// bottleneckPredictor is the production engine: §4.5's bottleneck
// simulation algorithm via throughput.Evaluator, which dispatches
// between the subset-sum table and union enumeration. Single-experiment
// calls draw a reusable evaluator from a pool so buffers survive across
// calls without locking in the caller.
type bottleneckPredictor struct {
	pool sync.Pool // *throughput.Evaluator
}

func (p *bottleneckPredictor) Name() string { return "bottleneck" }

func (p *bottleneckPredictor) Predict(m *portmap.Mapping, e portmap.Experiment) (float64, error) {
	if err := validate(m, e); err != nil {
		return 0, err
	}
	ev, _ := p.pool.Get().(*throughput.Evaluator)
	if ev == nil {
		ev = new(throughput.Evaluator)
	}
	v := ev.ThroughputOf(m, e)
	p.pool.Put(ev)
	return v, nil
}

func (p *bottleneckPredictor) PredictAll(m *portmap.Mapping, es []portmap.Experiment, out []float64) error {
	if err := checkBatch(m, es, out); err != nil {
		return err
	}
	return predictBatch(m, es, out, func(ev *throughput.Evaluator, e portmap.Experiment) (float64, error) {
		return ev.ThroughputOf(m, e), nil
	})
}

// lpPredictor is the reference engine: the linear program of
// Definition 3, solved with the simplex solver in internal/lp. Model
// construction is part of every call, mirroring the paper's measurement
// methodology for the LP baseline (§5.4).
type lpPredictor struct{}

func (lpPredictor) Name() string { return "lp" }

func (lpPredictor) Predict(m *portmap.Mapping, e portmap.Experiment) (float64, error) {
	if err := validate(m, e); err != nil {
		return 0, err
	}
	return throughput.LP(m.Flatten(e), m.NumPorts)
}

func (lpPredictor) PredictAll(m *portmap.Mapping, es []portmap.Experiment, out []float64) error {
	if err := checkBatch(m, es, out); err != nil {
		return err
	}
	return predictBatch(m, es, out, func(_ *throughput.Evaluator, e portmap.Experiment) (float64, error) {
		return throughput.LP(m.Flatten(e), m.NumPorts)
	})
}

// unionPredictor enumerates subsets of the distinct µop port sets
// instead of subsets of the ports; exact, and independent of the port
// count (the ablation of the paper's design choice).
type unionPredictor struct{}

func (unionPredictor) Name() string { return "union" }

func (unionPredictor) Predict(m *portmap.Mapping, e portmap.Experiment) (float64, error) {
	if err := validate(m, e); err != nil {
		return 0, err
	}
	return throughput.BottleneckUnion(m.Flatten(e)), nil
}

func (unionPredictor) PredictAll(m *portmap.Mapping, es []portmap.Experiment, out []float64) error {
	if err := checkBatch(m, es, out); err != nil {
		return err
	}
	return predictBatch(m, es, out, func(_ *throughput.Evaluator, e portmap.Experiment) (float64, error) {
		return throughput.BottleneckUnion(m.Flatten(e)), nil
	})
}

// naivePredictor is the unoptimized Θ(2^|P|) subset scan exactly as
// presented in §4.5, kept as an ablation baseline.
type naivePredictor struct{}

func (naivePredictor) Name() string { return "naive" }

func (naivePredictor) Predict(m *portmap.Mapping, e portmap.Experiment) (float64, error) {
	if err := validate(m, e); err != nil {
		return 0, err
	}
	return throughput.BottleneckNaive(m.Flatten(e)), nil
}

func (naivePredictor) PredictAll(m *portmap.Mapping, es []portmap.Experiment, out []float64) error {
	if err := checkBatch(m, es, out); err != nil {
		return err
	}
	return predictBatch(m, es, out, func(_ *throughput.Evaluator, e portmap.Experiment) (float64, error) {
		return throughput.BottleneckNaive(m.Flatten(e)), nil
	})
}
