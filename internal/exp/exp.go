// Package exp generates the experiment sets of paper §4.1 and couples
// experiments with measured throughputs.
//
// The generated set contains, for instruction forms i over the ISA under
// test:
//
//  1. a singleton {i→1} per form, measuring the individual throughput
//     t*(i);
//  2. a pair {iA→1, iB→1} per unordered pair of forms;
//  3. a weighted pair {iA→1, iB→n} with n = ⌈t*(iA)/t*(iB)⌉ per ordered
//     pair with t*(iA) > t*(iB).
//
// Pairs expose conflicting resource requirements; weighted pairs balance
// the mass of a slow instruction against several fast ones so partial
// conflicts become visible in the steady-state throughput.
package exp

import (
	"context"
	"fmt"
	"math"
	"slices"

	"pmevo/internal/portmap"
	"pmevo/internal/runctrl"
)

// Measurement couples an experiment with its measured throughput.
type Measurement struct {
	Exp        portmap.Experiment
	Throughput float64
}

// Measurer produces a throughput for an experiment. It is implemented by
// measure.Harness (simulated hardware) and could be implemented by a
// driver for real hardware.
type Measurer interface {
	Measure(e portmap.Experiment) (float64, error)
}

// BatchMeasurer is an optional extension of Measurer for backends that
// can measure a whole batch at once (e.g. measure.Harness, which fans
// the deterministic simulations out over all cores). Results must be in
// experiment order and identical to sequential Measure calls.
//
// The contract deliberately leaves room for backends to amortize the
// deterministic part of a measurement — measure.Harness caches the
// noiseless steady-state simulation per canonical kernel and reuses it
// across repeated and aliased bodies — as long as the noise/variance
// component is still drawn per measurement in experiment order, so batch
// and sequential results stay bit-identical. Experiments in a batch must
// NOT be deduplicated at this level: two equal experiments are distinct
// measurements and receive independent noise.
type BatchMeasurer interface {
	Measurer
	MeasureAll(ctx context.Context, es []portmap.Experiment) ([]float64, error)
}

// measureAll measures a batch through the fastest interface the
// measurer supports, honoring cancellation between measurements either
// way (an interrupted batch returns no partial results — see
// measure.Harness.MeasureAll for why batches are all-or-nothing).
func measureAll(ctx context.Context, m Measurer, es []portmap.Experiment) ([]float64, error) {
	if bm, ok := m.(BatchMeasurer); ok {
		return bm.MeasureAll(ctx, es)
	}
	out := make([]float64, len(es))
	for i, e := range es {
		if err := runctrl.Check(ctx); err != nil {
			return nil, err
		}
		tp, err := m.Measure(e)
		if err != nil {
			return nil, fmt.Errorf("experiment %d: %w", i, err)
		}
		out[i] = tp
	}
	return out, nil
}

// Set is a measured experiment set for an ISA with numInsts instructions.
type Set struct {
	NumInsts int
	// Individual[i] is the measured individual throughput t*(i).
	Individual []float64
	// Measurements contains all measured experiments, including the
	// singletons.
	Measurements []Measurement
}

// Singletons returns the singleton experiments {i→1} in instruction
// order.
func Singletons(numInsts int) []portmap.Experiment {
	out := make([]portmap.Experiment, numInsts)
	for i := range out {
		out[i] = portmap.Experiment{{Inst: i, Count: 1}}
	}
	return out
}

// ValidThroughput reports whether tp can be a measured throughput:
// finite and positive. A plain tp <= 0 check is not enough, because NaN
// fails every comparison.
func ValidThroughput(tp float64) bool { return tp > 0 && !math.IsInf(tp, 1) }

// checkReadings rejects the first reading of a measured batch that is
// not a valid throughput, naming its experiment.
func checkReadings(phase string, es []portmap.Experiment, tps []float64) error {
	for i, tp := range tps {
		if !ValidThroughput(tp) {
			return fmt.Errorf("exp: %s {%s}: throughput %g is not finite and positive", phase, es[i].Key(), tp)
		}
	}
	return nil
}

// PairExperiments returns the §4.1 pair and weighted-pair experiments
// for the given individual throughputs, deduplicated by multiset. The
// throughputs must be valid (ValidThroughput), and the ratio of the
// largest to the smallest must round up to a count that fits an int;
// GenerateAndMeasure checks both.
func PairExperiments(individual []float64) []portmap.Experiment {
	n := len(individual)
	var out []portmap.Experiment
	seen := make(map[string]bool)
	add := func(e portmap.Experiment) {
		e = e.Normalize()
		k := e.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, e)
		}
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			add(portmap.Experiment{{Inst: a, Count: 1}, {Inst: b, Count: 1}})
			// Weighted pair: slower instruction once, faster one often
			// enough to balance the masses.
			tA, tB := individual[a], individual[b]
			if tA > tB && tB > 0 {
				k := int(math.Ceil(tA / tB))
				add(portmap.Experiment{{Inst: a, Count: 1}, {Inst: b, Count: k}})
			} else if tB > tA && tA > 0 {
				k := int(math.Ceil(tB / tA))
				add(portmap.Experiment{{Inst: b, Count: 1}, {Inst: a, Count: k}})
			}
		}
	}
	return out
}

// GenerateAndMeasure runs the full §4.1 protocol: measure singletons,
// derive pair and weighted-pair experiments from the individual
// throughputs, and measure those too. Cancellation (honored between
// measurement batches and inside them) returns the typed
// runctrl.ErrCanceled/ErrDeadline — a partially measured set is never
// returned, because downstream inference assumes a complete protocol.
func GenerateAndMeasure(ctx context.Context, m Measurer, numInsts int) (*Set, error) {
	if numInsts <= 0 {
		return nil, fmt.Errorf("exp: no instructions")
	}
	set := &Set{
		NumInsts:   numInsts,
		Individual: make([]float64, numInsts),
	}
	singles := Singletons(numInsts)
	tps, err := measureAll(ctx, m, singles)
	if err != nil {
		if runctrl.Interrupted(err) {
			return nil, err
		}
		return nil, fmt.Errorf("exp: singletons: %w", err)
	}
	if err := checkReadings("singleton", singles, tps); err != nil {
		return nil, err
	}
	for i, e := range singles {
		set.Individual[i] = tps[i]
		set.Measurements = append(set.Measurements, Measurement{Exp: e, Throughput: tps[i]})
	}
	// The slowest and fastest singletons make the weighted pair with the
	// largest count, ⌈max/min⌉.
	lo, hi := slices.Min(set.Individual), slices.Max(set.Individual)
	if !(math.Ceil(hi/lo) < float64(math.MaxInt)) {
		return nil, fmt.Errorf("exp: weighted-pair count ⌈%g/%g⌉ does not fit an int", hi, lo)
	}
	pairs := PairExperiments(set.Individual)
	tps, err = measureAll(ctx, m, pairs)
	if err != nil {
		if runctrl.Interrupted(err) {
			return nil, err
		}
		return nil, fmt.Errorf("exp: pairs: %w", err)
	}
	if err := checkReadings("pair", pairs, tps); err != nil {
		return nil, err
	}
	for i, e := range pairs {
		set.Measurements = append(set.Measurements, Measurement{Exp: e, Throughput: tps[i]})
	}
	return set, nil
}

// NumExperiments returns the number of measured experiments in the set.
func (s *Set) NumExperiments() int { return len(s.Measurements) }

// PairThroughputs indexes the set's two-instruction measurements:
// the returned map's key identifies (a, countA, b, countB) with a < b.
type PairKey struct {
	A, CountA int
	B, CountB int
}

// PairThroughputs returns all measurements that involve exactly two
// distinct instructions, keyed by their shape. Congruence filtering uses
// this index.
func (s *Set) PairThroughputs() map[PairKey]float64 {
	out := make(map[PairKey]float64)
	for _, m := range s.Measurements {
		e := m.Exp.Normalize()
		if len(e) != 2 {
			continue
		}
		out[PairKey{A: e[0].Inst, CountA: e[0].Count, B: e[1].Inst, CountB: e[1].Count}] = m.Throughput
	}
	return out
}

// Project maps a measurement set onto a reduced instruction space:
// keep[i] gives the new index of old instruction i, or -1 to drop
// experiments mentioning it. Congruence filtering uses Project to
// restrict the evolutionary algorithm's inputs to class representatives
// (§4.3: "only needs to consider experiments that consist of these
// representatives").
func (s *Set) Project(keep []int, newCount int) *Set {
	out := &Set{
		NumInsts:   newCount,
		Individual: make([]float64, newCount),
	}
	for old, nw := range keep {
		if nw >= 0 {
			out.Individual[nw] = s.Individual[old]
		}
	}
	for _, m := range s.Measurements {
		var proj portmap.Experiment
		ok := true
		for _, t := range m.Exp {
			nw := keep[t.Inst]
			if nw < 0 {
				ok = false
				break
			}
			proj = append(proj, portmap.InstCount{Inst: nw, Count: t.Count})
		}
		if ok {
			out.Measurements = append(out.Measurements, Measurement{
				Exp:        proj.Normalize(),
				Throughput: m.Throughput,
			})
		}
	}
	return out
}

// RandomBenchmarkSet samples `size` experiments, each a uniformly random
// multiset of `length` instructions, reproducing the §5.3 benchmark sets
// ("sampled uniformly at random from the set of all instruction
// multi-sets of size 5"). Sampling uses the provided deterministic
// source.
func RandomBenchmarkSet(rng interface{ Intn(int) int }, numInsts, size, length int) []portmap.Experiment {
	out := make([]portmap.Experiment, size)
	for i := range out {
		var e portmap.Experiment
		for j := 0; j < length; j++ {
			e = append(e, portmap.InstCount{Inst: rng.Intn(numInsts), Count: 1})
		}
		out[i] = e.Normalize()
	}
	return out
}
