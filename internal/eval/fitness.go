package eval

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"pmevo/internal/evo"
	"pmevo/internal/exp"
	"pmevo/internal/portmap"
	"pmevo/internal/throughput"
)

// FitnessBenchResult reports the fitness-evaluation throughput of the
// evolutionary hot loop: a full inference run (evolution plus greedy
// local search) on a synthetic hidden machine, measured with evo's
// redundancy-exploiting layer (duplicate skip, delta local search) on
// and off. The results are bit-identical by
// construction (pinned in internal/evo); only the cost differs.
type FitnessBenchResult struct {
	NumInsts    int
	NumPorts    int
	Experiments int
	Population  int
	Generations int

	// Cached is the production configuration, Uncached the same run
	// with DisableCache.
	Cached   FitnessBenchRun
	Uncached FitnessBenchRun
}

// FitnessBenchRun is one timed inference run.
type FitnessBenchRun struct {
	Seconds          float64
	Evaluations      int
	EvalsPerSec      float64
	DeltaEvals       int64
	DeltaExpsSkipped int64
	BestError        float64
}

// fitnessBenchInsts/Ports fix the synthetic machine of the fitness
// benchmark (the ablation-scale hidden processor).
const (
	fitnessBenchInsts = 12
	fitnessBenchPorts = 8
)

type modelMeasurer struct{ m *portmap.Mapping }

func (mm modelMeasurer) Measure(e portmap.Experiment) (float64, error) {
	return throughput.OfExperiment(mm.m, e), nil
}

// RunFitnessBench measures the population fitness loop at the given
// scale: evo.Run on a hidden random machine, cached vs uncached.
func RunFitnessBench(ctx context.Context, scale Scale) (*FitnessBenchResult, error) {
	rng := rand.New(rand.NewSource(scale.Seed + 4))
	hidden := portmap.Random(rng, portmap.RandomOptions{
		NumInsts: fitnessBenchInsts, NumPorts: fitnessBenchPorts, MaxUops: 2,
	})
	set, err := exp.GenerateAndMeasure(ctx, modelMeasurer{hidden}, fitnessBenchInsts)
	if err != nil {
		return nil, fmt.Errorf("fitness bench: %w", err)
	}
	res := &FitnessBenchResult{
		NumInsts:    fitnessBenchInsts,
		NumPorts:    fitnessBenchPorts,
		Experiments: set.NumExperiments(),
		Population:  scale.Population,
		Generations: scale.MaxGenerations,
	}
	run := func(disable bool) (FitnessBenchRun, error) {
		opts := evo.Options{
			PopulationSize:  scale.Population,
			MaxGenerations:  scale.MaxGenerations,
			NumPorts:        fitnessBenchPorts,
			LocalSearch:     true,
			VolumeObjective: true,
			Seed:            scale.Seed,
			DisableCache:    disable,
		}
		start := time.Now()
		r, err := evo.Run(ctx, set, opts)
		if err != nil {
			return FitnessBenchRun{}, err
		}
		secs := time.Since(start).Seconds()
		out := FitnessBenchRun{
			Seconds:          secs,
			Evaluations:      r.FitnessEvaluations,
			DeltaEvals:       r.CacheStats.DeltaEvaluations,
			DeltaExpsSkipped: r.CacheStats.DeltaExperimentsSkipped,
			BestError:        r.BestError,
		}
		if secs > 0 {
			out.EvalsPerSec = float64(r.FitnessEvaluations) / secs
		}
		return out, nil
	}
	if res.Cached, err = run(false); err != nil {
		return nil, err
	}
	if res.Uncached, err = run(true); err != nil {
		return nil, err
	}
	if res.Cached.BestError != res.Uncached.BestError {
		return nil, fmt.Errorf("fitness bench: cached Davg %v != uncached %v (caching must be bit-exact)",
			res.Cached.BestError, res.Uncached.BestError)
	}
	return res, nil
}

// Speedup returns the cached-over-uncached wall-time ratio.
func (r *FitnessBenchResult) Speedup() float64 {
	if r.Cached.Seconds <= 0 {
		return 0
	}
	return r.Uncached.Seconds / r.Cached.Seconds
}

// Render prints the benchmark in a human-readable form.
func (r *FitnessBenchResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fitness-evaluation throughput (hidden %d-inst/%d-port machine, %d experiments, p=%d, %d generations)\n",
		r.NumInsts, r.NumPorts, r.Experiments, r.Population, r.Generations)
	b.WriteString("\n")
	row := func(name string, run FitnessBenchRun) {
		fmt.Fprintf(&b, "%-9s %9.3fs  %8d evals  %10.0f evals/s  delta=%d skipped=%d\n",
			name, run.Seconds, run.Evaluations, run.EvalsPerSec, run.DeltaEvals, run.DeltaExpsSkipped)
	}
	row("cached", r.Cached)
	row("uncached", r.Uncached)
	fmt.Fprintf(&b, "\nspeedup: %.2fx (bit-identical results, Davg = %.6g)\n", r.Speedup(), r.Cached.BestError)
	return b.String()
}

// WriteCSV emits the two timed runs for machine comparison.
func (r *FitnessBenchResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "config,seconds,evaluations,evals_per_sec,delta_evals,delta_exps_skipped"); err != nil {
		return err
	}
	for _, row := range []struct {
		name string
		run  FitnessBenchRun
	}{{"cached", r.Cached}, {"uncached", r.Uncached}} {
		if _, err := fmt.Fprintf(w, "%s,%.6f,%d,%.1f,%d,%d\n",
			row.name, row.run.Seconds, row.run.Evaluations, row.run.EvalsPerSec,
			row.run.DeltaEvals, row.run.DeltaExpsSkipped); err != nil {
			return err
		}
	}
	return nil
}
