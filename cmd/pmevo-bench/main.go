// Command pmevo-bench regenerates the tables and figures of the paper's
// evaluation (§5) against the simulated processors.
//
// Usage:
//
//	pmevo-bench -exp table1
//	pmevo-bench -exp table3 -scale default
//	pmevo-bench -exp figure8 -csv results/
//	pmevo-bench -exp engines -engine=lp
//	pmevo-bench -exp all -scale quick -json results/
//
// Experiments: table1, table2, table3, table4, figure6, figure7,
// figure8, engines, fitness, measure, machine, evo, all. Tables 2–4 and
// Figure 7 share the same inference pipelines and are computed together
// when any of them is requested.
//
// fitness, measure, machine and evo are the twin benchmarks of package
// twinbench: each times a fast path against its slower twin (evo: the
// island model against one population at an equal evaluation budget).
// They print their metrics sorted by name, and -csv writes them as
// metric,value rows; the other experiments print their table or figure
// and write its plottable series.
//
// -engine selects the throughput engine for the `engines` consistency
// dump; running it with -engine=lp and -engine=bottleneck must produce
// identical output (up to 1e-9) on the Table 1 configurations.
//
// -cache-dir warm-starts the persistent caches: the kernel-simulation
// cache is loaded before any experiment runs and spilled on exit. A
// second invocation with the same -cache-dir reports disk-warm hit
// rates; results are bit-identical to cold runs (the caches hold pure
// functions of their keys).
//
// -json writes one machine-readable BENCH_<experiment>.json per
// experiment, so the performance trajectory of the repository can be
// tracked across changes. wall_seconds is the marginal cost of the
// experiment's own computation and rendering; computation shared
// between experiments (the inference suite behind tables 2-4 and
// figure 7) is reported once per record in the suite_seconds /
// accuracy_seconds metrics instead, so summing wall_seconds never
// multiple-counts it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"pmevo/internal/engine"
	"pmevo/internal/eval"
	"pmevo/internal/lifecycle"
	"pmevo/internal/measure"
	"pmevo/internal/twinbench"
)

// benchRecord is the schema of a BENCH_*.json file. WallSeconds is the
// experiment's marginal cost (see the package comment); shared suite
// costs live in Metrics.
type benchRecord struct {
	Experiment  string             `json:"experiment"`
	Scale       string             `json:"scale"`
	Seed        int64              `json:"seed"`
	Engine      string             `json:"engine,omitempty"`
	WallSeconds float64            `json:"wall_seconds"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	expFlag := flag.String("exp", "all", "experiment to run: table1|table2|table3|table4|figure6|figure7|figure8|engines|fitness|measure|machine|evo|all")
	scaleFlag := flag.String("scale", "default", "experiment scale: quick|default|full")
	engineFlag := flag.String("engine", "bottleneck",
		"throughput engine for the engines consistency dump: "+strings.Join(engine.Names(), "|"))
	csvDir := flag.String("csv", "", "directory to write CSV result files into (optional)")
	jsonDir := flag.String("json", "", "directory to write machine-readable BENCH_*.json records into (optional)")
	cacheDir := flag.String("cache-dir", "",
		"directory for persistent warm-start caches (kernel-simulation cache); loaded at start, spilled at exit")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	var scale eval.Scale
	switch *scaleFlag {
	case "quick":
		scale = eval.QuickScale()
	case "default":
		scale = eval.DefaultScale()
	case "full":
		scale = eval.FullScale()
	default:
		fatalf("unknown scale %q (want quick, default, or full)", *scaleFlag)
	}
	scale.Seed = *seed

	progress := func(msg string) { fmt.Fprintf(os.Stderr, "[pmevo-bench] %s\n", msg) }
	logf := func(format string, args ...any) { progress(fmt.Sprintf(format, args...)) }

	// Warm-start: seed the process-wide kernel-simulation cache from the
	// previous invocation's spill before any driver measures, and spill
	// it again on exit — including error exits (fatalf), so a late
	// driver failure cannot discard simulation work earlier drivers paid
	// for. Load never fails into results — a missing or damaged file
	// just cold-starts.
	ctx := context.Background()
	if *cacheDir != "" {
		measure.WarmStartSimCache(*cacheDir, logf)
		spillOnExit = func() { measure.SpillSimCache(*cacheDir, logf) }
		defer spillOnExit()
		// SIGINT/SIGTERM spill the caches before exiting (mirroring the
		// fatalf path): a benchmark run has no resumable state, but the
		// simulation work it paid for should survive the interruption.
		stopSignals := lifecycle.OnSignalSpill(func() {
			logf("interrupted; spilling caches")
			spillOnExit()
		})
		defer stopSignals()
	}

	// Per-driver attribution of the shared kernel cache (the cache is
	// process-wide, so a later driver's raw hit counters would be
	// inflated by entries earlier drivers paid for): each BENCH record
	// carries the snapshot-and-subtract delta of the process counters
	// since the previous record.
	lastSimStats := measure.ProcessCacheStats()

	// record writes one BENCH_*.json; engineName is empty for
	// experiments the -engine flag does not influence.
	record := func(name, engineName string, start time.Time, metrics map[string]float64) {
		now := measure.ProcessCacheStats()
		if delta := now.Sub(lastSimStats); delta != (measure.CacheStats{}) {
			if metrics == nil {
				metrics = map[string]float64{}
			}
			metrics["driver_sim_hits"] = float64(delta.SimHits)
			metrics["driver_sim_misses"] = float64(delta.SimMisses)
			metrics["driver_sim_warm_hits"] = float64(delta.SimWarmHits)
		}
		lastSimStats = now
		writeBenchJSON(*jsonDir, benchRecord{
			Experiment:  name,
			Scale:       *scaleFlag,
			Seed:        *seed,
			Engine:      engineName,
			WallSeconds: time.Since(start).Seconds(),
			Metrics:     metrics,
		})
	}

	want := map[string]bool{}
	switch *expFlag {
	case "all":
		for _, e := range []string{"table1", "table2", "table3", "table4", "figure6", "figure7", "figure8", "engines", "fitness", "measure", "machine", "evo"} {
			want[e] = true
		}
	case "table1", "table2", "table3", "table4", "figure6", "figure7", "figure8", "figure8a", "figure8b", "ablation", "engines", "fitness", "measure", "machine", "evo":
		want[*expFlag] = true
	default:
		fatalf("unknown experiment %q", *expFlag)
	}

	if want["table1"] {
		start := time.Now()
		fmt.Println(eval.Table1())
		record("table1", "", start, nil)
	}

	if want["engines"] {
		progress(fmt.Sprintf("running engine consistency dump (engine=%s)", *engineFlag))
		start := time.Now()
		res, err := eval.RunEngineCheck(*engineFlag, *seed)
		if err != nil {
			fatalf("engines: %v", err)
		}
		fmt.Println(res.Render())
		writeCSV(*csvDir, "engines.csv", res.WriteCSV)
		record("engines", *engineFlag, start, map[string]float64{"experiments": float64(len(res.Lines))})
	}

	// The twin benchmarks (package twinbench) each return the metrics of
	// their BENCH record, which are also their output.
	for _, tb := range []struct {
		name, what string
		run        func() (map[string]float64, error)
	}{
		{"fitness", "fitness-evaluation benchmark (cached vs uncached)",
			func() (map[string]float64, error) { return twinbench.Fitness(ctx, scale) }},
		{"measure", "measurement benchmark (fast path vs brute-force simulation)",
			func() (map[string]float64, error) { return twinbench.Measure(ctx, scale, *cacheDir) }},
		{"machine", "simulator-core benchmark (event-driven vs cycle-by-cycle stepping)",
			func() (map[string]float64, error) { return twinbench.Machine(scale) }},
		{"evo", "evolution-loop benchmark (island model vs single population)",
			func() (map[string]float64, error) { return twinbench.Evo(ctx, scale) }},
	} {
		if !want[tb.name] {
			continue
		}
		progress("running " + tb.what)
		start := time.Now()
		metrics, err := tb.run()
		if err != nil {
			fatalf("%s: %v", tb.name, err)
		}
		var text, csv strings.Builder
		csv.WriteString("metric,value\n")
		for _, name := range slices.Sorted(maps.Keys(metrics)) {
			fmt.Fprintf(&text, "%-28s %g\n", name, metrics[name])
			fmt.Fprintf(&csv, "%s,%g\n", name, metrics[name])
		}
		fmt.Printf("%s\n\n%s\n", tb.name, text.String())
		writeCSV(*csvDir, tb.name+".csv", func(w io.Writer) error {
			_, err := io.WriteString(w, csv.String())
			return err
		})
		record(tb.name, "", start, metrics)
	}

	if want["figure6"] {
		progress("running Figure 6 sweep")
		start := time.Now()
		res, err := eval.RunFigure6(ctx, scale)
		if err != nil {
			fatalf("figure 6: %v", err)
		}
		fmt.Println(res.Render())
		writeCSV(*csvDir, "figure6.csv", res.WriteCSV)
		metrics := map[string]float64{}
		for i, l := range res.Lengths {
			metrics[fmt.Sprintf("mape_uopsinfo_len%d", l)] = res.MAPEUopsInfo[i]
			metrics[fmt.Sprintf("mape_iaca_len%d", l)] = res.MAPEIACA[i]
		}
		record("figure6", "", start, metrics)
	}

	if want["table2"] || want["table3"] || want["table4"] || want["figure7"] {
		suiteStart := time.Now()
		suite, err := eval.NewSuite(ctx, scale, progress)
		if err != nil {
			fatalf("pipeline suite: %v", err)
		}
		suiteSeconds := time.Since(suiteStart).Seconds()
		if want["table2"] {
			start := time.Now()
			rows := suite.Table2()
			fmt.Println(eval.RenderTable2(rows))
			metrics := map[string]float64{"suite_seconds": suiteSeconds}
			for _, r := range rows {
				metrics["inference_seconds_"+r.Arch] = r.InferenceTime.Seconds()
				metrics["congruent_pct_"+r.Arch] = r.CongruentPct
			}
			record("table2", "", start, metrics)
		}
		if want["table3"] || want["table4"] || want["figure7"] {
			accStart := time.Now()
			acc, err := suite.Accuracy(ctx, progress)
			if err != nil {
				fatalf("accuracy: %v", err)
			}
			// The accuracy computation is shared by the three outputs;
			// each record times only its own rendering on top of the
			// shared suite/accuracy metrics.
			metrics := map[string]float64{
				"suite_seconds":    suiteSeconds,
				"accuracy_seconds": time.Since(accStart).Seconds(),
			}
			for _, row := range acc.Rows {
				metrics["mape_"+row.Arch+"_"+row.Tool] = row.MAPE
			}
			if want["table3"] {
				start := time.Now()
				fmt.Println(acc.RenderTable3())
				record("table3", "", start, metrics)
			}
			if want["table4"] {
				start := time.Now()
				fmt.Println(acc.RenderTable4())
				record("table4", "", start, metrics)
			}
			if want["figure7"] {
				start := time.Now()
				fmt.Println(acc.RenderFigure7())
				record("figure7", "", start, metrics)
			}
			writeCSV(*csvDir, "accuracy.csv", acc.WriteCSV)
		}
	}

	if want["ablation"] {
		progress("running experiment-design ablation")
		start := time.Now()
		res, err := eval.RunExperimentDesignAblation(ctx, scale, 3)
		if err != nil {
			fatalf("ablation: %v", err)
		}
		fmt.Println(res.Render())
		writeCSV(*csvDir, "ablation.csv", res.WriteCSV)
		record("ablation", "", start, nil)
	}

	if want["figure8"] || want["figure8a"] || want["figure8b"] {
		progress("running Figure 8 sweeps")
		start := time.Now()
		res, err := eval.RunFigure8(scale)
		if err != nil {
			fatalf("figure 8: %v", err)
		}
		fmt.Println(res.Render())
		writeCSV(*csvDir, "figure8.csv", res.WriteCSV)
		metrics := map[string]float64{}
		if n := len(res.PortSweep); n > 0 {
			last := res.PortSweep[n-1]
			metrics["bottleneck_sec_maxports"] = last.BottleneckSec
			metrics["lp_sec_maxports"] = last.LPSec
		}
		record("figure8", "", start, metrics)
	}
}

func writeBenchJSON(dir string, rec benchRecord) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatalf("mkdir %s: %v", dir, err)
	}
	path := filepath.Join(dir, "BENCH_"+rec.Experiment+".json")
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fatalf("marshal %s: %v", path, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatalf("write %s: %v", path, err)
	}
	fmt.Fprintf(os.Stderr, "[pmevo-bench] wrote %s\n", path)
}

func writeCSV(dir, name string, write func(w io.Writer) error) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatalf("mkdir %s: %v", dir, err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		fatalf("create %s: %v", path, err)
	}
	defer f.Close()
	if err := write(f); err != nil {
		fatalf("write %s: %v", path, err)
	}
	fmt.Fprintf(os.Stderr, "[pmevo-bench] wrote %s\n", path)
}

// spillOnExit persists the kernel cache on error exits too (deferred
// saves never run past os.Exit); the cached values are pure, so a spill
// taken mid-failure is as valid as one taken at success.
var spillOnExit func()

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "pmevo-bench: "+format+"\n", args...)
	if spillOnExit != nil {
		spillOnExit()
	}
	os.Exit(1)
}
