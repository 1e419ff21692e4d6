package twinbench

import (
	"context"
	"fmt"
	"time"

	"pmevo/internal/eval"
	"pmevo/internal/exp"
	"pmevo/internal/machine"
	"pmevo/internal/measure"
	"pmevo/internal/uarch"
)

// Measure times §4.2 generate-and-measure (singletons, pairs, weighted
// pairs) on the Table 1 processors with the measurement fast path
// (period detection, the event-driven core and the kernel cache) and
// with the brute-force twin (cycle-by-cycle simulation, no cache), and
// fails if any measurement differs.
//
// A non-empty cacheDir selects disk-warm timing. Each fast run starts
// from exactly the directory's spill file: the cache is flushed, then
// the file is loaded, so entries seeded by earlier drivers in the same
// process are dropped and the warm hits stay attributable. The cache is
// spilled again after each fast run, so every processor's kernels
// persist even if a later one fails. The twin bypasses the cache either
// way, so the bit-equality check also pins warm results to cold ones.
func Measure(ctx context.Context, scale eval.Scale, cacheDir string) (map[string]float64, error) {
	return measureOn(ctx, scale, cacheDir, archs...)
}

// measureOn is Measure on the named processors.
func measureOn(ctx context.Context, scale eval.Scale, cacheDir string, names ...string) (map[string]float64, error) {
	if err := scale.Validate(); err != nil {
		return nil, err
	}
	metrics := map[string]float64{}
	var fast, base, warm float64
	for _, name := range names {
		if err := measureArch(ctx, metrics, name, scale, cacheDir); err != nil {
			return nil, fmt.Errorf("measure bench %s: %w", name, err)
		}
		fast += metrics["seconds_fast_"+name]
		base += metrics["seconds_baseline_"+name]
		warm += metrics["sim_warm_hits_"+name]
	}
	metrics["speedup"] = ratio(base, fast)
	metrics["sim_warm_hits"] = warm
	return metrics, nil
}

// measureArch times one processor's fast run and twin run, checks them
// bit for bit, and adds the processor's metrics.
func measureArch(ctx context.Context, metrics map[string]float64, name string, scale eval.Scale, cacheDir string) error {
	fastSet, h, fastSecs, err := measureSide(ctx, name, scale, cacheDir, false)
	if err != nil {
		return err
	}
	st := h.CacheStats()
	if cacheDir != "" {
		// The cache now holds the disk entries plus this processor's new
		// kernels, and the next run flushes. Entries are pure functions
		// of their keys, so a spill mid-benchmark never affects results.
		if err := measure.SaveSimCache(measure.SimCachePath(cacheDir)); err != nil {
			return fmt.Errorf("spill kernel cache: %w", err)
		}
	}
	baseSet, _, baseSecs, err := measureSide(ctx, name, scale, cacheDir, true)
	if err != nil {
		return err
	}
	if len(fastSet.Measurements) != len(baseSet.Measurements) {
		return fmt.Errorf("experiment counts diverged: %d vs %d",
			len(fastSet.Measurements), len(baseSet.Measurements))
	}
	for i := range fastSet.Measurements {
		if fastSet.Measurements[i].Throughput != baseSet.Measurements[i].Throughput {
			return fmt.Errorf(
				"measurement %d differs: fast %v != baseline %v (measurement fast path must be bit-exact)",
				i, fastSet.Measurements[i].Throughput, baseSet.Measurements[i].Throughput)
		}
	}
	metrics["seconds_fast_"+name] = fastSecs
	metrics["seconds_baseline_"+name] = baseSecs
	metrics["speedup_"+name] = ratio(baseSecs, fastSecs)
	metrics["meas_per_sec_"+name] = ratio(float64(h.Measurements()), fastSecs)
	metrics["sim_hits_"+name] = float64(st.SimHits)
	metrics["sim_misses_"+name] = float64(st.SimMisses)
	metrics["sim_warm_hits_"+name] = float64(st.SimWarmHits)
	metrics["experiments_"+name] = float64(fastSet.NumExperiments())
	return nil
}

// measureSide runs one side of measureArch on the named processor: the
// fast path, or with baseline the brute-force twin. It returns the
// measured set, the harness and the seconds generate-and-measure took.
func measureSide(ctx context.Context, name string, scale eval.Scale, cacheDir string, baseline bool) (*exp.Set, *measure.Harness, float64, error) {
	// At least two forms per semantic class: the paper's form sets
	// (310/390 forms over a few dozen classes) are dominated by
	// same-class forms with identical execution behaviour, and that
	// class-level redundancy, which the kernel cache collapses, is part
	// of the workload under test. One form per class would hide it.
	perClass := scale.MaxFormsPerClass
	if perClass == 1 {
		perClass = 2
	}
	// Known cache state: earlier experiments in the same process
	// measure overlapping kernels on the same machines, and without a
	// flush the fast run would be served hits it did not pay for. A
	// failed load (absent or stale spill) flushes again, so a partially
	// applied load cannot skew the warm-hit attribution.
	measure.FlushSimCache()
	if cacheDir != "" {
		if _, err := measure.LoadSimCache(measure.SimCachePath(cacheDir)); err != nil {
			measure.FlushSimCache()
		}
	}
	proc, err := uarch.ByName(name)
	if err != nil {
		return nil, nil, 0, err
	}
	if baseline {
		proc.Config.PeriodDetectBudget = machine.PeriodDetectDisabled
		proc.Config.EventDrivenDisabled = true
	}
	sub, ids, err := eval.SubsetForms(proc.ISA, perClass)
	if err != nil {
		return nil, nil, 0, err
	}
	mopts := measure.DefaultOptions()
	mopts.Seed = scale.Seed
	mopts.DisableSimCache = baseline
	h, err := measure.NewHarness(proc, mopts)
	if err != nil {
		return nil, nil, 0, err
	}
	start := time.Now()
	set, err := exp.GenerateAndMeasure(ctx, measure.SubsetMeasurer{H: h, IDs: ids}, sub.NumForms())
	return set, h, time.Since(start).Seconds(), err
}
