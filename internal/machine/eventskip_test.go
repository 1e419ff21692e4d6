package machine_test

// Property tests for the event-driven fast-forward: Run with dead-cycle
// skipping enabled must be bit-identical to brute-force cycle-by-cycle
// simulation in every combination with period detection, on dead-cycle-
// heavy workloads (latency far above the window drain rate, blocking
// dividers, tiny windows) under both scheduling policies — the regimes
// where the fast-forward does the most work and where an off-by-one in
// the span accounting would surface immediately.

import (
	"math/rand"
	"testing"

	"pmevo/internal/machine"
	"pmevo/internal/measure"
	"pmevo/internal/portmap"
	"pmevo/internal/uarch"
)

// quadVariant names one point of the {detection} × {event skip} square.
type quadVariant struct {
	name      string
	detectOff bool
	eventOff  bool
}

var quadVariants = []quadVariant{
	{"detect+skip", false, false},
	{"detect-only", false, true},
	{"skip-only", true, false},
	{"brute", true, true},
}

// quad builds the four machines of the {detection} × {event skip}
// square from one configuration; index 3 is the brute-force oracle.
func quad(t *testing.T, cfg machine.Config, specs []machine.InstSpec) [4]*machine.Machine {
	t.Helper()
	var out [4]*machine.Machine
	for i, v := range quadVariants {
		c := cfg
		if v.detectOff {
			c.PeriodDetectBudget = machine.PeriodDetectDisabled
		} else {
			c.PeriodDetectBudget = 0
		}
		c.EventDrivenDisabled = v.eventOff
		m, err := machine.New(c, specs)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = m
	}
	return out
}

// deadCycleBody generates a loop body dominated by dead cycles: long
// single-register RAW chains (latency far above the drain rate of the
// tiny windows used below) interleaved with occasional independent or
// divider instructions, so readiness bounds, busy-release bounds, and
// the window-full stall accounting are all exercised across a jump.
func deadCycleBody(rng *rand.Rand, nspecs int) []machine.Inst {
	bodyLen := 1 + rng.Intn(8)
	body := make([]machine.Inst, bodyLen)
	chainReg := rng.Intn(3)
	for i := range body {
		in := machine.Inst{Spec: rng.Intn(nspecs)}
		switch rng.Intn(4) {
		case 0: // independent
			in.Writes = append(in.Writes, 4+rng.Intn(4))
		default: // extend the loop-carried chain
			in.Reads = append(in.Reads, chainReg)
			in.Writes = append(in.Writes, chainReg)
		}
		body[i] = in
	}
	return body
}

// TestEventSkipMatchesBruteForceStress runs the dead-cycle stress
// generator through all four {detection} × {event skip} combinations:
// latencies 8..64 against windows of 1..8 µops and dispatch widths of
// 1..3, blocking dividers up to 16 cycles, both scheduling policies.
// Every variant must be bit-identical to brute force, and the skipping
// variants must actually skip (the workload is built so stepping would
// spend most cycles doing nothing).
func TestEventSkipMatchesBruteForceStress(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var totalSkipped [4]int64
	for trial := 0; trial < 250; trial++ {
		ports := 1 + rng.Intn(3)
		cfg := machine.Config{
			NumPorts:      ports,
			DispatchWidth: 1 + rng.Intn(3),
			WindowSize:    1 + rng.Intn(8),
			Policy:        machine.SchedPolicy(rng.Intn(2)),
			FrequencyGHz:  1,
		}
		nspecs := 1 + rng.Intn(3)
		specs := make([]machine.InstSpec, nspecs)
		for i := range specs {
			nuops := 1 + rng.Intn(2)
			uops := make([]machine.UopSpec, nuops)
			for j := range uops {
				ps := portmap.PortSet(rng.Intn(1<<ports-1) + 1)
				block := 1
				if rng.Intn(3) == 0 {
					block = 2 + rng.Intn(15) // divider: busy-release bounds
				}
				uops[j] = machine.UopSpec{Ports: ps, Block: block}
			}
			// Latency ≫ window drain rate: the chain parks the window for
			// many cycles per issue.
			specs[i] = machine.InstSpec{Uops: uops, Latency: 8 + rng.Intn(57)}
		}
		body := deadCycleBody(rng, nspecs)
		iters := 1 + rng.Intn(60)

		var results [4]machine.Result
		for i, m := range quad(t, cfg, specs) {
			res, err := m.Run(body, iters)
			if err != nil {
				t.Fatal(err)
			}
			results[i] = res
			totalSkipped[i] += res.SkippedCycles
		}
		for i := 0; i < 3; i++ {
			sameResult(t, quadVariants[i].name+" stress trial", results[i], results[3])
		}
		if results[3].SkippedCycles != 0 {
			t.Fatalf("brute run skipped %d cycles", results[3].SkippedCycles)
		}
		if results[1].SkippedCycles != 0 {
			t.Fatalf("detect-only run skipped %d cycles", results[1].SkippedCycles)
		}
	}
	// The premise of the PR: on this workload the fast-forward engages
	// massively (typically >90% of simulated cycles are jumped).
	if totalSkipped[0] == 0 || totalSkipped[2] == 0 {
		t.Errorf("event skip never engaged on the stress set: skipped %v", totalSkipped)
	}
}

// TestEventSkipWorstCases pins hand-picked adversarial shapes per
// scheduling policy: LowestIndex's systematic imbalance (everything
// funnels to port 0 while others idle), a window of one µop (every
// dispatch stalls), and a divider-only body (busy-release is the only
// event source). Each must match brute force bit-for-bit and with equal
// SteadyStateCycles.
func TestEventSkipWorstCases(t *testing.T) {
	cases := []struct {
		name  string
		cfg   machine.Config
		specs []machine.InstSpec
		body  []machine.Inst
	}{
		{
			// All µops may issue anywhere but LowestIndex sends every one
			// to port 0; ports 1-2 stay idle forever and their busy[k]=0
			// must not pull the event bound into the past.
			name: "lowest-index-imbalance",
			cfg: machine.Config{
				NumPorts: 3, DispatchWidth: 2, WindowSize: 4,
				Policy: machine.LowestIndex, FrequencyGHz: 1,
			},
			specs: []machine.InstSpec{
				{Uops: []machine.UopSpec{{Ports: portmap.MakePortSet(0, 1, 2), Block: 5}}, Latency: 20},
			},
			body: []machine.Inst{
				{Spec: 0, Reads: []int{0}, Writes: []int{0}},
				{Spec: 0, Reads: []int{0}, Writes: []int{0}},
			},
		},
		{
			// Window of one: dispatch is blocked almost always, so nearly
			// every cycle is a windowFull cycle — the span accounting term
			// most sensitive to an off-by-one.
			name: "window-of-one",
			cfg: machine.Config{
				NumPorts: 2, DispatchWidth: 3, WindowSize: 1,
				Policy: machine.LeastLoaded, FrequencyGHz: 1,
			},
			specs: []machine.InstSpec{
				{Uops: []machine.UopSpec{{Ports: portmap.MakePortSet(0, 1), Block: 1}}, Latency: 13},
			},
			body: []machine.Inst{
				{Spec: 0, Reads: []int{1}, Writes: []int{1}},
			},
		},
		{
			// Divider-heavy: independent µops with long blocking on one
			// port — wakeAt is always ready, the busy-release bound alone
			// drives every jump.
			name: "divider-only",
			cfg: machine.Config{
				NumPorts: 2, DispatchWidth: 2, WindowSize: 6,
				Policy: machine.LowestIndex, FrequencyGHz: 1,
			},
			specs: []machine.InstSpec{
				{Uops: []machine.UopSpec{{Ports: portmap.MakePortSet(0), Block: 16}}, Latency: 1},
				{Uops: []machine.UopSpec{{Ports: portmap.MakePortSet(1), Block: 11}}, Latency: 1},
			},
			body: []machine.Inst{
				{Spec: 0, Writes: []int{2}},
				{Spec: 1, Writes: []int{3}},
				{Spec: 0, Writes: []int{4}},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ms := quad(t, tc.cfg, tc.specs)
			for _, iters := range []int{1, 7, 40, 200} {
				var results [4]machine.Result
				for i, m := range ms {
					res, err := m.Run(tc.body, iters)
					if err != nil {
						t.Fatal(err)
					}
					results[i] = res
				}
				for i := 0; i < 3; i++ {
					sameResult(t, quadVariants[i].name, results[i], results[3])
				}
			}
			skipOnly := ms[2]
			brute := ms[3]
			res, err := skipOnly.Run(tc.body, 200)
			if err != nil {
				t.Fatal(err)
			}
			if res.SkippedCycles == 0 {
				t.Errorf("event skip never engaged on %s", tc.name)
			}
			g, err := ms[0].SteadyStateCycles(tc.body, 30, 120)
			if err != nil {
				t.Fatal(err)
			}
			w, err := brute.SteadyStateCycles(tc.body, 30, 120)
			if err != nil {
				t.Fatal(err)
			}
			if g != w {
				t.Errorf("%s: SteadyStateCycles %v != brute %v", tc.name, g, w)
			}
		})
	}
}

// TestEventSkipMatchesBruteForceUarch runs harness-built loop bodies on
// all three Table 1 configurations under both scheduling policies with
// the full quad, mirroring the period-detection uarch test but asserting
// the skip engages at measurement scale on at least one body per
// processor (the real configs have latency-bound instructions).
func TestEventSkipMatchesBruteForceUarch(t *testing.T) {
	mopts := measure.DefaultOptions()
	for _, proc := range uarch.All() {
		h, err := measure.NewHarness(proc, mopts)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(11))
		var exps []portmap.Experiment
		n := proc.ISA.NumForms()
		for i := 0; i < 5; i++ {
			e := portmap.Experiment{{Inst: rng.Intn(n), Count: 1 + rng.Intn(2)}}
			exps = append(exps, e.Normalize())
		}
		for _, policy := range []machine.SchedPolicy{machine.LeastLoaded, machine.LowestIndex} {
			cfg := proc.Config
			cfg.Policy = policy
			ms := quad(t, cfg, proc.Specs)
			for _, e := range exps {
				body, _, err := h.BuildLoop(e)
				if err != nil {
					t.Fatal(err)
				}
				var results [4]machine.Result
				for i, m := range ms {
					results[i], err = m.Run(body, mopts.WarmupIters+mopts.MeasureIters)
					if err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < 3; i++ {
					sameResult(t, proc.Name+"/"+quadVariants[i].name, results[i], results[3])
				}
			}
		}
	}
}
