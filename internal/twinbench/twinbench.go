// Package twinbench times the repository's fast paths against their
// slower twins, and checks in the same run that the fast path changes
// nothing but the time it takes. Each driver returns the metrics of one
// pmevo-bench BENCH record, under the names that record and CI's
// perf-smoke gates use:
//
//   - Fitness: inference with evo's delta local search on and off;
//     both must reach a bit-equal best Davg.
//   - Measure: §4.2 generate-and-measure with the measurement fast path
//     on and off; every measurement must be bit-equal.
//   - Machine: the simulator core with the event-driven fast-forward on
//     and off; every simulated Result must be equal.
//   - Evo: the island model against one population at an equal
//     evaluation budget. The two search differently, so their results
//     are reported, not compared.
//
// Seconds and rates are wall-clock; counts (evaluations, cycles, cache
// misses) are fixed by the seed.
package twinbench

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"pmevo/internal/eval"
	"pmevo/internal/evo"
	"pmevo/internal/exp"
	"pmevo/internal/portmap"
	"pmevo/internal/throughput"
)

// archs are the Table 1 processors the measure and machine drivers
// sweep, in run order.
var archs = []string{"SKL", "ZEN", "A72"}

// ratio returns num/den, or 0 when den is not positive (a run too short
// for the clock).
func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

type modelMeasurer struct{ m *portmap.Mapping }

func (mm modelMeasurer) Measure(e portmap.Experiment) (float64, error) {
	return throughput.OfExperiment(mm.m, e), nil
}

// hiddenSet measures the experiment set of a random hidden mapping
// (at most 2 µops per instruction) without noise.
func hiddenSet(ctx context.Context, seed int64, insts, ports int) (*exp.Set, error) {
	hidden := portmap.Random(rand.New(rand.NewSource(seed)), portmap.RandomOptions{
		NumInsts: insts, NumPorts: ports, MaxUops: 2,
	})
	return exp.GenerateAndMeasure(ctx, modelMeasurer{hidden}, insts)
}

// Fitness times a full inference (evolution plus local search) on a
// hidden 12-instruction, 8-port machine with evo's delta local search on
// and off (evo.Options.DisableCache), and fails unless both runs reach a
// bit-equal best Davg.
func Fitness(ctx context.Context, scale eval.Scale) (map[string]float64, error) {
	const insts, ports = 12, 8
	set, err := hiddenSet(ctx, scale.Seed+4, insts, ports)
	if err != nil {
		return nil, fmt.Errorf("fitness bench: %w", err)
	}
	run := func(disable bool) (*evo.Result, float64, error) {
		start := time.Now()
		r, err := evo.Run(ctx, set, evo.Options{
			PopulationSize:  scale.Population,
			MaxGenerations:  scale.MaxGenerations,
			NumPorts:        ports,
			LocalSearch:     true,
			VolumeObjective: true,
			Seed:            scale.Seed,
			DisableCache:    disable,
		})
		return r, time.Since(start).Seconds(), err
	}
	cached, cachedSecs, err := run(false)
	if err != nil {
		return nil, err
	}
	uncached, uncachedSecs, err := run(true)
	if err != nil {
		return nil, err
	}
	if cached.BestError != uncached.BestError {
		return nil, fmt.Errorf("fitness bench: cached Davg %v != uncached %v (caching must be bit-exact)",
			cached.BestError, uncached.BestError)
	}
	return map[string]float64{
		"evals_per_sec":          ratio(float64(cached.FitnessEvaluations), cachedSecs),
		"evals_per_sec_uncached": ratio(float64(uncached.FitnessEvaluations), uncachedSecs),
		"speedup":                ratio(uncachedSecs, cachedSecs),
		"evaluations":            float64(cached.FitnessEvaluations),
		"delta_evals":            float64(cached.CacheStats.DeltaEvaluations),
		"delta_exps_skipped":     float64(cached.CacheStats.DeltaExperimentsSkipped),
	}, nil
}

// evoPopFactor amplifies scale.Population for the evo driver only, so
// each timed run lasts long enough for stable wall-clock numbers even at
// QuickScale: population 80 finishes in milliseconds on its machine.
const evoPopFactor = 50

// Evo times evolution on a hidden 6-instruction, 3-port machine with
// one population and with scale.Islands islands (0: GOMAXPROCS; at
// least 2, so the island path always runs), at an equal evaluation
// budget: the same population and generation bound. Both evaluate every
// child, so unless an island converges early each run spends exactly
// population × (generations+1) evaluations.
//
// The machine is narrow on purpose. Evaluation is cheap there, so the
// serial per-generation phases that the island model shards
// (recombination and selection) carry a large share of the run; on a
// wide machine evaluation, which one population already parallelizes,
// would bury them. Local search is off in both runs: it is a serial
// final phase common to both, timed by Fitness. The island model's
// determinism contracts are pinned by internal/evo's tests.
func Evo(ctx context.Context, scale eval.Scale) (map[string]float64, error) {
	const insts, ports = 6, 3
	set, err := hiddenSet(ctx, scale.Seed+6, insts, ports)
	if err != nil {
		return nil, fmt.Errorf("evo bench: %w", err)
	}
	islands := scale.Islands
	if islands <= 0 {
		islands = runtime.GOMAXPROCS(0)
	}
	islands = max(islands, 2)
	metrics := map[string]float64{"islands": float64(islands)}
	var secs [2]float64
	for i, cfg := range []struct {
		name    string
		islands int
	}{{"single", 1}, {"islands", islands}} {
		start := time.Now()
		r, err := evo.Run(ctx, set, evo.Options{
			PopulationSize:    scale.Population * evoPopFactor,
			MaxGenerations:    scale.MaxGenerations,
			NumPorts:          ports,
			VolumeObjective:   true,
			Seed:              scale.Seed,
			Islands:           cfg.islands,
			MigrationInterval: scale.MigrationInterval,
			MigrationCount:    scale.MigrationCount,
		})
		if err != nil {
			return nil, err
		}
		secs[i] = time.Since(start).Seconds()
		metrics["seconds_"+cfg.name] = secs[i]
		metrics["evaluations_"+cfg.name] = float64(r.FitnessEvaluations)
		metrics["evals_per_sec_"+cfg.name] = ratio(float64(r.FitnessEvaluations), secs[i])
		metrics["generations_"+cfg.name] = float64(r.Generations)
		metrics["best_error_"+cfg.name] = r.BestError
	}
	metrics["speedup"] = ratio(secs[0], secs[1])
	return metrics, nil
}
