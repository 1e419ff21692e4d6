package twinbench

import (
	"context"
	"maps"
	"slices"
	"testing"

	"pmevo/internal/eval"
	"pmevo/internal/measure"
)

// TestFitnessBench smokes the fitness driver: the cached and uncached
// runs must reach a bit-equal Davg (checked inside the driver), and the
// cached run must both evaluate and take delta local-search steps.
func TestFitnessBench(t *testing.T) {
	scale := eval.QuickScale()
	scale.Population = 16
	scale.MaxGenerations = 4
	m, err := Fitness(context.Background(), scale)
	if err != nil {
		t.Fatal(err)
	}
	if m["evaluations"] <= 0 || m["delta_evals"] <= 0 {
		t.Errorf("evaluations %v, delta_evals %v; want both positive", m["evaluations"], m["delta_evals"])
	}
}

// TestMeasureBenchArchBitExact smokes the measurement driver on the
// cheapest processor: it must report a positive speedup and, enforced
// inside the driver, bit-identical measurements between the fast path
// and the brute-force baseline. It also pins the driver's metric names
// for one processor (see TestMetricNames).
func TestMeasureBenchArchBitExact(t *testing.T) {
	m, err := measureOn(context.Background(), eval.QuickScale(), "", "A72")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"experiments_A72", "meas_per_sec_A72", "seconds_baseline_A72", "seconds_fast_A72",
		"sim_hits_A72", "sim_misses_A72", "sim_warm_hits", "sim_warm_hits_A72",
		"speedup", "speedup_A72",
	}
	if got := slices.Sorted(maps.Keys(m)); !slices.Equal(got, want) {
		t.Errorf("measure metrics:\n got %q\nwant %q", got, want)
	}
	if m["experiments_A72"] == 0 || m["meas_per_sec_A72"] <= 0 {
		t.Fatalf("bad accounting: %v", m)
	}
	if m["sim_hits_A72"] == 0 {
		t.Error("fast path recorded no kernel-cache hits on a class-redundant form set")
	}
	if m["speedup_A72"] <= 1 {
		t.Errorf("measurement fast path slower than brute force: %v", m)
	}
}

// TestMeasureBenchWarmStartRoundTrip is the driver-level pin of the
// persistent cache: a measurement bench warm-started from a spill file
// written by an earlier ("cold") invocation must report disk-warm hits
// and, enforced inside the driver against the brute-force baseline,
// bit-identical measurements. The fresh process is simulated by
// flushing the in-memory cache between the two phases.
func TestMeasureBenchWarmStartRoundTrip(t *testing.T) {
	ctx := context.Background()
	scale := eval.QuickScale()
	dir := t.TempDir()

	// Pollute the process-wide cache with every kernel the cold run
	// needs, by running its fast side alone: entries earlier drivers
	// paid for must not leak into the benchmark's attribution (the
	// driver flushes and reloads exactly the spill file).
	if _, _, _, err := measureSide(ctx, "A72", scale, "", false); err != nil {
		t.Fatal(err)
	}

	cold, err := measureOn(ctx, scale, dir, "A72") // no spill file yet
	if err != nil {
		t.Fatal(err)
	}
	if cold["sim_warm_hits"] != 0 {
		t.Fatalf("cold run reported %v disk-warm hits", cold["sim_warm_hits"])
	}
	if cold["sim_misses_A72"] == 0 {
		t.Fatal("cold run paid for nothing; pollution from the earlier run leaked in")
	}

	measure.FlushSimCache() // "new process"
	defer measure.FlushSimCache()
	warm, err := measureOn(ctx, scale, dir, "A72")
	if err != nil {
		t.Fatal(err)
	}
	if warm["sim_warm_hits"] == 0 {
		t.Error("warm run reported no disk-warm hits")
	}
	// The spill holds every kernel the cold run simulated, so the warm
	// run simulates none (CI's perf-smoke round-trip asserts the same).
	if warm["sim_misses_A72"] != 0 {
		t.Errorf("warm run missed %v times; cold run missed %v", warm["sim_misses_A72"], cold["sim_misses_A72"])
	}
}

// TestMachineBenchKernelBitExact smokes the simulator-core driver on
// the cheapest processor: the dead-cycle kernels must engage the
// fast-forward (and the dense kernel must not), with bit-identical
// results enforced inside the driver. No timing thresholds: wall-clock
// speedups are asserted only by the CI perf-smoke job.
func TestMachineBenchKernelBitExact(t *testing.T) {
	m := map[string]float64{}
	if err := machineArch(m, "A72", 600, 1); err != nil {
		t.Fatal(err)
	}
	for _, kern := range []string{"latency", "divider", "dense"} {
		cycles, ok := m["cycles_"+kern+"_A72"]
		skipped := m["skipped_cycles_"+kern+"_A72"]
		if !ok || cycles <= 0 {
			t.Errorf("%s kernel simulated %v cycles", kern, cycles)
		}
		switch kern {
		case "latency", "divider":
			// The dead-cycle kernels exist to be dominated by dead
			// cycles; anything below half skipped means the kernel
			// shape regressed.
			if 2*skipped < cycles {
				t.Errorf("%s kernel skipped only %v of %v cycles", kern, skipped, cycles)
			}
		case "dense":
			if skipped != 0 {
				t.Errorf("dense kernel skipped %v cycles; it must saturate issue", skipped)
			}
		}
	}
	if m["speedup_latency_A72"] <= 0 {
		t.Error("latency speedup not recorded")
	}
}

// TestRunEvoBenchQuick smokes the evo driver: both runs must spend
// exactly the equal evaluation budget and report a wall time and a Davg.
func TestRunEvoBenchQuick(t *testing.T) {
	scale := eval.QuickScale()
	// Keep the smoke test fast: a small amplified population still
	// exercises both configurations end to end.
	scale.Population = 8
	scale.MaxGenerations = 6
	scale.Islands = 3
	m, err := Evo(context.Background(), scale)
	if err != nil {
		t.Fatal(err)
	}
	if m["islands"] != 3 {
		t.Errorf("islands = %v, want 3", m["islands"])
	}
	population := float64(8 * evoPopFactor)
	budget := population * float64(scale.MaxGenerations+1)
	for _, run := range []string{"single", "islands"} {
		// Every island evaluates its initial population and all of each
		// generation's children. At this seed no island converges early,
		// so each run spends the whole budget.
		if gens := m["generations_"+run]; gens != float64(scale.MaxGenerations) {
			t.Errorf("%s: %v generations, want %d", run, gens, scale.MaxGenerations)
		}
		if evals := m["evaluations_"+run]; evals != budget {
			t.Errorf("%s: %v evaluations, want the budget %v", run, evals, budget)
		}
		if m["seconds_"+run] <= 0 {
			t.Errorf("%s: non-positive wall time %v", run, m["seconds_"+run])
		}
		if m["best_error_"+run] < 0 {
			t.Errorf("%s: negative Davg %v", run, m["best_error_"+run])
		}
	}
}

// TestMetricNames pins every driver's metric names: pmevo-bench writes
// them into BENCH records, and CI's perf-smoke gates read them. Each
// list is sorted. The measure driver's names are pinned for one
// processor by TestMeasureBenchArchBitExact, whose run this would
// repeat.
func TestMetricNames(t *testing.T) {
	ctx := context.Background()
	scale := eval.QuickScale()
	scale.Population = 16
	scale.MaxGenerations = 1
	for _, tc := range []struct {
		driver string
		run    func() (map[string]float64, error)
		want   []string
	}{
		{"fitness", func() (map[string]float64, error) { return Fitness(ctx, scale) }, []string{
			"delta_evals", "delta_exps_skipped", "evals_per_sec", "evals_per_sec_uncached",
			"evaluations", "speedup",
		}},
		{"machine", func() (map[string]float64, error) { return Machine(scale) }, []string{
			"cycles_dense_A72", "cycles_dense_SKL", "cycles_dense_ZEN", "cycles_divider_A72",
			"cycles_divider_SKL", "cycles_divider_ZEN", "cycles_latency_A72", "cycles_latency_SKL",
			"cycles_latency_ZEN", "ns_per_iter_dense_A72", "ns_per_iter_dense_SKL",
			"ns_per_iter_dense_ZEN", "ns_per_iter_divider_A72", "ns_per_iter_divider_SKL",
			"ns_per_iter_divider_ZEN", "ns_per_iter_latency_A72", "ns_per_iter_latency_SKL",
			"ns_per_iter_latency_ZEN", "skipped_cycles_dense_A72", "skipped_cycles_dense_SKL",
			"skipped_cycles_dense_ZEN", "skipped_cycles_divider_A72", "skipped_cycles_divider_SKL",
			"skipped_cycles_divider_ZEN", "skipped_cycles_latency_A72", "skipped_cycles_latency_SKL",
			"skipped_cycles_latency_ZEN", "speedup_dense_A72", "speedup_dense_SKL",
			"speedup_dense_ZEN", "speedup_dense_min", "speedup_divider_A72", "speedup_divider_SKL",
			"speedup_divider_ZEN", "speedup_divider_min", "speedup_latency_A72", "speedup_latency_SKL",
			"speedup_latency_ZEN", "speedup_latency_min",
		}},
		{"evo", func() (map[string]float64, error) { return Evo(ctx, scale) }, []string{
			"best_error_islands", "best_error_single", "evals_per_sec_islands", "evals_per_sec_single",
			"evaluations_islands", "evaluations_single", "generations_islands", "generations_single",
			"islands", "seconds_islands", "seconds_single", "speedup",
		}},
	} {
		m, err := tc.run()
		if err != nil {
			t.Fatalf("%s: %v", tc.driver, err)
		}
		if got := slices.Sorted(maps.Keys(m)); !slices.Equal(got, tc.want) {
			t.Errorf("%s metrics:\n got %q\nwant %q", tc.driver, got, tc.want)
		}
	}
}
