// Command pmevo-infer runs the PMEvo inference pipeline against one of
// the simulated processors and writes the inferred port mapping as JSON.
//
// Usage:
//
//	pmevo-infer -proc SKL -o skl-mapping.json
//	pmevo-infer -proc A72 -population 2000 -generations 80 -forms-per-class 5
//
// The pipeline only observes measured steady-state throughputs from the
// simulated machine — never its hidden ground-truth mapping — exactly as
// the paper's tool only observes wall-clock time on real hardware.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"pmevo/internal/eval"
	"pmevo/internal/evo"
	"pmevo/internal/export"
	"pmevo/internal/lifecycle"
	"pmevo/internal/measure"
	"pmevo/internal/portmap"
	"pmevo/internal/throughput"
)

func main() {
	procName := flag.String("proc", "SKL", "processor under test: SKL|ZEN|A72")
	out := flag.String("o", "", "output file for the inferred mapping JSON (default: stdout)")
	llvmOut := flag.String("llvm", "", "also write an LLVM-style scheduling model fragment to this file")
	osacaOut := flag.String("osaca", "", "also write an OSACA-style machine model fragment to this file")
	population := flag.Int("population", 300, "evolutionary algorithm population size")
	generations := flag.Int("generations", 40, "maximum generations")
	islands := flag.Int("islands", 0,
		"island count for the evolutionary algorithm (0: single population; N>1 shards the population into N concurrently evolving islands)")
	migrationInterval := flag.Int("migration-interval", 0,
		"generations between island migrations (0: default; negative: no migration); ignored with -islands <= 1")
	migrationCount := flag.Int("migration-count", 0,
		"emigrants per island per migration (0: default; negative: no migration); ignored with -islands <= 1")
	formsPerClass := flag.Int("forms-per-class", 3, "instruction forms per semantic class (0: all forms)")
	cacheDir := flag.String("cache-dir", "",
		"directory for the persistent kernel-simulation cache; loaded before measurement, spilled on success")
	deadline := flag.Duration("deadline", 0,
		"abort the run after this duration, checkpointing first (0 or negative: no deadline)")
	checkpointDir := flag.String("checkpoint-dir", "",
		"directory for crash-safe evolution checkpoints; a deadline, SIGINT or SIGTERM spills the search state here for -resume")
	checkpointInterval := flag.Int("checkpoint-interval", 0,
		"generations between periodic checkpoints (0: default of 10; negative: only at migration barriers and interruption); ignored without -checkpoint-dir")
	resume := flag.Bool("resume", false,
		"resume the evolutionary search from the checkpoint in -checkpoint-dir (cold-starts with a diagnostic if absent or unusable)")
	seed := flag.Int64("seed", 1, "random seed")
	verbose := flag.Bool("v", false, "print the mapping and a port usage table to stderr")
	flag.Parse()

	scale := eval.DefaultScale()
	scale.Population = *population
	scale.MaxGenerations = *generations
	scale.MaxFormsPerClass = *formsPerClass
	scale.Islands = *islands
	scale.MigrationInterval = *migrationInterval
	scale.MigrationCount = *migrationCount
	scale.CheckpointDir = *checkpointDir
	scale.CheckpointInterval = *checkpointInterval
	scale.Resume = *resume
	scale.Log = logf
	scale.Seed = *seed

	if *resume && *checkpointDir == "" {
		fatalf("-resume requires -checkpoint-dir")
	}

	// SIGINT/SIGTERM and -deadline cancel the root context; the pipeline
	// checkpoints at the next generation boundary and returns its best
	// partial result with a typed interruption error.
	ctx, stopSignals := lifecycle.SignalContext(context.Background(), *deadline)
	defer stopSignals()

	// Warm-start the kernel-simulation cache from a previous invocation:
	// measurement dominates inference wall time, and the noiseless
	// steady-state cycles of each kernel are a pure function of the
	// machine and body, so reloading them changes timing but never the
	// inferred mapping (a damaged or missing file just cold-starts). The
	// spill also runs on error exits (fatalf), so a failure after
	// measurement keeps the simulated kernels.
	if *cacheDir != "" {
		measure.WarmStartSimCache(*cacheDir, logf)
		spillOnExit = func() { measure.SpillSimCache(*cacheDir, logf) }
	}

	start := time.Now()
	layout := "single population"
	if *islands > 1 {
		layout = fmt.Sprintf("%d islands", *islands)
	}
	fmt.Fprintf(os.Stderr, "[pmevo-infer] inferring port mapping for %s "+
		"(population %d, max %d generations, %s)\n", *procName, *population, *generations, layout)
	run, err := eval.RunPipeline(ctx, *procName, scale)
	if err != nil {
		if evo.Interrupted(err) {
			// The search already checkpointed (with -checkpoint-dir) and
			// the partial mapping is deliberately NOT written: an
			// interrupted run must never be mistaken for a finished one.
			// Exit code 3 distinguishes interruption from failure (1).
			if *cacheDir != "" {
				measure.SpillSimCache(*cacheDir, logf)
			}
			logf("interrupted: %v", err)
			if *checkpointDir != "" {
				logf("run state checkpointed; rerun with -resume -checkpoint-dir %s to continue", *checkpointDir)
			} else {
				logf("no -checkpoint-dir; progress is lost")
			}
			os.Exit(3)
		}
		fatalf("%v", err)
	}
	res := run.Result

	if *cacheDir != "" {
		measure.SpillSimCache(*cacheDir, logf)
		spillOnExit = nil // spilled; later failures need not repeat it
		st := measure.ProcessCacheStats()
		logf("kernel cache: %d hits (%d disk-warm), %d misses",
			st.SimHits, st.SimWarmHits, st.SimMisses)
	}

	fmt.Fprintf(os.Stderr, "[pmevo-infer] measured %d experiments (simulated benchmarking cost: %.1f h)\n",
		run.Harness.Measurements(), run.Harness.SimulatedBenchmarkingCost()/3600)
	fmt.Fprintf(os.Stderr, "[pmevo-infer] %d forms -> %d congruence classes (%.0f%% congruent)\n",
		run.SubISA.NumForms(), res.Classes.NumClasses(), res.CongruentFraction()*100)
	fmt.Fprintf(os.Stderr, "[pmevo-infer] evolution: %d generations, %d fitness evaluations, Davg = %.3f\n",
		res.Evo.Generations, res.Evo.FitnessEvaluations, res.Evo.BestError)
	fmt.Fprintf(os.Stderr, "[pmevo-infer] mapping uses %d distinct µops; total time %s\n",
		res.NumUops(), time.Since(start).Round(time.Millisecond))

	// Report the prediction error of the inferred mapping on the
	// measured training set, per the fitness definition.
	var worst float64
	var worstExp portmap.Experiment
	for _, m := range res.Set.Measurements {
		// Training-set experiments are in subset instruction space.
		pred := throughput.OfExperiment(res.Mapping, m.Exp)
		rel := abs(pred-m.Throughput) / m.Throughput
		if rel > worst {
			worst = rel
			worstExp = m.Exp
		}
	}
	fmt.Fprintf(os.Stderr, "[pmevo-infer] worst training-set error: %.1f%% on %v\n", worst*100, worstExp)

	if *verbose {
		fmt.Fprintln(os.Stderr, res.Mapping.String())
		fmt.Fprintln(os.Stderr, res.Mapping.PortUsageTable())
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatalf("create %s: %v", *out, err)
		}
		defer f.Close()
		w = f
	}
	if err := res.Mapping.WriteJSON(w); err != nil {
		fatalf("writing mapping: %v", err)
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "[pmevo-infer] wrote %s\n", *out)
	}

	// Downstream-tool exports (§6: llvm-mca and OSACA "can benefit from
	// port mappings by PMEvo").
	if *llvmOut != "" {
		writeExport(*llvmOut, func(f *os.File) error {
			return export.LLVMSchedModel(f, res.Mapping, *procName+"Virt")
		})
	}
	if *osacaOut != "" {
		writeExport(*osacaOut, func(f *os.File) error {
			return export.OSACAModel(f, res.Mapping, *procName+"Virt")
		})
	}
}

func writeExport(path string, write func(*os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		fatalf("create %s: %v", path, err)
	}
	defer f.Close()
	if err := write(f); err != nil {
		fatalf("write %s: %v", path, err)
	}
	fmt.Fprintf(os.Stderr, "[pmevo-infer] wrote %s\n", path)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// spillOnExit persists the kernel cache when fatalf aborts after
// measurement already ran (deferred saves never run past os.Exit).
var spillOnExit func()

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "[pmevo-infer] "+format+"\n", args...)
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "pmevo-infer: "+format+"\n", args...)
	if spillOnExit != nil {
		spillOnExit()
	}
	os.Exit(1)
}
