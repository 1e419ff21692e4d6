package machine_test

// Property tests for steady-state period detection: Run with detection
// enabled must be bit-identical to brute-force cycle-by-cycle simulation
// on randomized kernels and configurations, on all three Table 1
// processors, under both scheduling policies. This external test package
// exists so the tests can drive the simulator with the real uarch
// configurations and harness-built loop bodies without an import cycle.

import (
	"math/rand"
	"testing"

	"pmevo/internal/machine"
	"pmevo/internal/measure"
	"pmevo/internal/portmap"
	"pmevo/internal/uarch"
)

// twin builds a fast machine (period detection and the event-driven
// fast-forward both enabled) and a brute-force machine (both disabled)
// from the same configuration and specs, so every comparison below
// exercises the two fast paths composed against pure cycle-by-cycle
// simulation.
func twin(t *testing.T, cfg machine.Config, specs []machine.InstSpec) (det, brute *machine.Machine) {
	t.Helper()
	cfg.PeriodDetectBudget = 0
	cfg.EventDrivenDisabled = false
	det, err := machine.New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	cfg.PeriodDetectBudget = machine.PeriodDetectDisabled
	cfg.EventDrivenDisabled = true
	brute, err = machine.New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	return det, brute
}

// sameResult compares every semantic field (DetectedPeriod,
// DetectedPeriodIters, and SkippedCycles are diagnostic metadata and
// intentionally excluded — they describe how the run was computed, not
// what it computed).
func sameResult(t *testing.T, ctx string, got, want machine.Result) {
	t.Helper()
	if got.Cycles != want.Cycles || got.Instructions != want.Instructions ||
		got.Uops != want.Uops || got.WindowFullCycles != want.WindowFullCycles ||
		got.OccupancySum != want.OccupancySum {
		t.Fatalf("%s: detection diverged from brute force:\n got  %+v\nwant %+v", ctx, got, want)
	}
	for k := range want.PortUops {
		if got.PortUops[k] != want.PortUops[k] {
			t.Fatalf("%s: port %d µops %d != %d", ctx, k, got.PortUops[k], want.PortUops[k])
		}
	}
}

// TestPeriodDetectionMatchesBruteForceRandom exercises randomized
// machines (ports, dispatch width, window size, both policies, blocking
// µops) against randomized dependency-carrying bodies and iteration
// counts.
func TestPeriodDetectionMatchesBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 300; trial++ {
		ports := 1 + rng.Intn(4)
		cfg := machine.Config{
			NumPorts:      ports,
			DispatchWidth: 1 + rng.Intn(4),
			WindowSize:    1 + rng.Intn(24),
			Policy:        machine.SchedPolicy(rng.Intn(2)),
			FrequencyGHz:  1,
		}
		nspecs := 1 + rng.Intn(4)
		specs := make([]machine.InstSpec, nspecs)
		for i := range specs {
			nuops := 1 + rng.Intn(3)
			uops := make([]machine.UopSpec, nuops)
			for j := range uops {
				ps := portmap.PortSet(rng.Intn(1<<ports-1) + 1)
				block := 1
				if rng.Intn(4) == 0 {
					block = 1 + rng.Intn(4)
				}
				uops[j] = machine.UopSpec{Ports: ps, Block: block}
			}
			specs[i] = machine.InstSpec{Uops: uops, Latency: 1 + rng.Intn(12)}
		}
		det, brute := twin(t, cfg, specs)

		bodyLen := 1 + rng.Intn(10)
		body := make([]machine.Inst, bodyLen)
		for i := range body {
			in := machine.Inst{Spec: rng.Intn(nspecs)}
			for r := rng.Intn(3); r > 0; r-- {
				in.Reads = append(in.Reads, rng.Intn(8))
			}
			for w := rng.Intn(3); w > 0; w-- {
				in.Writes = append(in.Writes, rng.Intn(8))
			}
			body[i] = in
		}
		iters := 1 + rng.Intn(80)

		got, err := det.Run(body, iters)
		if err != nil {
			t.Fatal(err)
		}
		want, err := brute.Run(body, iters)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "random trial", got, want)

		warmup := rng.Intn(20)
		measureIters := 1 + rng.Intn(60)
		g, err := det.SteadyStateCycles(body, warmup, measureIters)
		if err != nil {
			t.Fatal(err)
		}
		w, err := brute.SteadyStateCycles(body, warmup, measureIters)
		if err != nil {
			t.Fatal(err)
		}
		if g != w {
			t.Fatalf("trial %d: SteadyStateCycles %v != brute %v", trial, g, w)
		}
	}
}

// TestPeriodDetectionMatchesBruteForceUarch runs harness-built loop
// bodies on all three Table 1 configurations under both scheduling
// policies and pins bit-equality of Run and SteadyStateCycles against
// brute force. It also asserts that detection actually engages at
// measurement scale — the premise of the measurement speedup.
func TestPeriodDetectionMatchesBruteForceUarch(t *testing.T) {
	mopts := measure.DefaultOptions()
	for _, proc := range uarch.All() {
		h, err := measure.NewHarness(proc, mopts)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		var exps []portmap.Experiment
		n := proc.ISA.NumForms()
		for i := 0; i < 6; i++ {
			e := portmap.Experiment{{Inst: rng.Intn(n), Count: 1 + rng.Intn(2)}}
			if rng.Intn(2) == 0 {
				e = append(e, portmap.InstCount{Inst: rng.Intn(n), Count: 1})
			}
			exps = append(exps, e.Normalize())
		}
		for _, policy := range []machine.SchedPolicy{machine.LeastLoaded, machine.LowestIndex} {
			cfg := proc.Config
			cfg.Policy = policy
			det, brute := twin(t, cfg, proc.Specs)
			detected := false
			for _, e := range exps {
				body, _, err := h.BuildLoop(e)
				if err != nil {
					t.Fatal(err)
				}
				for _, iters := range []int{mopts.WarmupIters, mopts.WarmupIters + mopts.MeasureIters} {
					got, err := det.Run(body, iters)
					if err != nil {
						t.Fatal(err)
					}
					want, err := brute.Run(body, iters)
					if err != nil {
						t.Fatal(err)
					}
					sameResult(t, proc.Name, got, want)
					if got.DetectedPeriod > 0 {
						detected = true
					}
					if want.DetectedPeriod != 0 {
						t.Fatalf("%s: brute-force run reports a detected period", proc.Name)
					}
				}
				g, err := det.SteadyStateCycles(body, mopts.WarmupIters, mopts.MeasureIters)
				if err != nil {
					t.Fatal(err)
				}
				w, err := brute.SteadyStateCycles(body, mopts.WarmupIters, mopts.MeasureIters)
				if err != nil {
					t.Fatal(err)
				}
				if g != w {
					t.Fatalf("%s: SteadyStateCycles %v != brute %v", proc.Name, g, w)
				}
			}
			if !detected {
				t.Errorf("%s (policy %v): period detection never engaged on harness bodies", proc.Name, policy)
			}
		}
	}
}

// TestPeriodDetectionScratchReuse runs many different bodies back to
// back through ONE machine (and therefore one pooled scratch/detector),
// pinning that state left over from a previous run — recurrence tables,
// pending-cell numbering stamps, arenas — can never leak into the next
// run's canonical encoding: every result must still match brute force.
func TestPeriodDetectionScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	cfg := machine.Config{
		NumPorts:      3,
		DispatchWidth: 2,
		WindowSize:    12,
		Policy:        machine.LeastLoaded,
		FrequencyGHz:  1,
	}
	specs := []machine.InstSpec{
		{Uops: []machine.UopSpec{{Ports: portmap.MakePortSet(0, 1), Block: 1}}, Latency: 2},
		{Uops: []machine.UopSpec{{Ports: portmap.MakePortSet(2), Block: 1}}, Latency: 5},
		{Uops: []machine.UopSpec{{Ports: portmap.MakePortSet(0), Block: 3}}, Latency: 1},
	}
	det, brute := twin(t, cfg, specs)
	for trial := 0; trial < 200; trial++ {
		body := make([]machine.Inst, 1+rng.Intn(8))
		for i := range body {
			in := machine.Inst{Spec: rng.Intn(len(specs))}
			for r := rng.Intn(3); r > 0; r-- {
				in.Reads = append(in.Reads, rng.Intn(6))
			}
			for w := rng.Intn(2); w >= 0; w-- {
				in.Writes = append(in.Writes, rng.Intn(6))
			}
			body[i] = in
		}
		iters := 1 + rng.Intn(70)
		got, err := det.Run(body, iters)
		if err != nil {
			t.Fatal(err)
		}
		want, err := brute.Run(body, iters)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "scratch-reuse trial", got, want)
	}
}

// TestBaselineMachineMatches pins the uarch plumb-through: a processor's
// BaselineMachine must be the brute-force twin of Machine — identical
// results, detection disabled, same fingerprint.
func TestBaselineMachineMatches(t *testing.T) {
	for _, proc := range uarch.All() {
		mach, err := proc.Machine()
		if err != nil {
			t.Fatal(err)
		}
		base, err := proc.BaselineMachine()
		if err != nil {
			t.Fatal(err)
		}
		if mach.Fingerprint() != base.Fingerprint() {
			t.Errorf("%s: fingerprints differ between Machine and BaselineMachine", proc.Name)
		}
		h, err := measure.NewHarness(proc, measure.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		body, _, err := h.BuildLoop(portmap.Experiment{{Inst: 0, Count: 1}, {Inst: 1, Count: 1}})
		if err != nil {
			t.Fatal(err)
		}
		got, err := mach.Run(body, 40)
		if err != nil {
			t.Fatal(err)
		}
		want, err := base.Run(body, 40)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, proc.Name, got, want)
		if want.DetectedPeriod != 0 {
			t.Errorf("%s: BaselineMachine still detects periods", proc.Name)
		}
		if want.SkippedCycles != 0 {
			t.Errorf("%s: BaselineMachine still fast-forwards cycles (%d skipped)", proc.Name, want.SkippedCycles)
		}
	}
}

// TestRunSteadyStateAllocationFree pins the scratch-pool property: after
// warmup, Run allocates only its Result's PortUops slice.
func TestRunSteadyStateAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	proc := uarch.SKL()
	mach, err := proc.Machine()
	if err != nil {
		t.Fatal(err)
	}
	h, err := measure.NewHarness(proc, measure.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	body, _, err := h.BuildLoop(portmap.Experiment{{Inst: 0, Count: 1}, {Inst: 2, Count: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // warm the scratch pool and detection arenas
		if _, err := mach.Run(body, 150); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := mach.Run(body, 150); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Errorf("steady-state Run allocates %.1f objects per call, want <= 3", allocs)
	}
}
