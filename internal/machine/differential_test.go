package machine_test

// Differential tests for load-aware period detection: the fast machine
// (detection and event skip on) must match the brute-force twin on every
// Result field over harness-built kernels of the three Table 1
// processors and over wide random LeastLoaded machines, and detection
// must actually fire on nearly all of them — the premise of the
// measurement speedup.

import (
	"fmt"
	"math/rand"
	"testing"

	"pmevo/internal/exp"
	"pmevo/internal/machine"
	"pmevo/internal/measure"
	"pmevo/internal/portmap"
	"pmevo/internal/uarch"
)

// diffKernel checks one body on the fast machine against the brute-force
// twin on every Result field: Run at both iteration targets, and
// SteadyStateResult. It reports whether the warmup+measure run detected
// a period.
func diffKernel(t *testing.T, ctx string, fast, brute *machine.Machine, body []machine.Inst, warmup, measure int) bool {
	t.Helper()
	var want [2]machine.Result
	for i, iters := range []int{warmup, warmup + measure} {
		w, err := brute.Run(body, iters)
		if err != nil {
			t.Fatal(err)
		}
		g, err := fast.Run(body, iters)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("%s: Run(%d)", ctx, iters), g, w)
		want[i] = w
	}
	wantCy := float64(want[1].Cycles-want[0].Cycles) / float64(measure)
	got, res, err := fast.SteadyStateResult(body, warmup, measure)
	if err != nil {
		t.Fatal(err)
	}
	if got != wantCy {
		t.Fatalf("%s: SteadyStateCycles %v != brute %v", ctx, got, wantCy)
	}
	sameResult(t, ctx+": SteadyStateResult", res, want[1])
	return res.DetectedPeriod > 0
}

// TestDifferentialHarnessKernels runs random length-2/5/8 harness
// kernels (the shape of §5.3's held-out sets) on SKL, ZEN and A72 and
// pins detection rates on the length-5 kernels: before detection was
// load-aware it fired on about half of the SKL and ZEN kernels, because
// port loads that diverge inside a group of shared ports never recur.
func TestDifferentialHarnessKernels(t *testing.T) {
	const perLength, floor = 40, 0.95
	mopts := measure.DefaultOptions()
	for pi, proc := range uarch.All() {
		h, err := measure.NewHarness(proc, mopts)
		if err != nil {
			t.Fatal(err)
		}
		fast, brute := twin(t, proc.Config, proc.Specs)
		for _, length := range []int{2, 5, 8} {
			rng := rand.New(rand.NewSource(int64(100*pi + length)))
			detected := 0
			for i, e := range exp.RandomBenchmarkSet(rng, proc.ISA.NumForms(), perLength, length) {
				body, _, err := h.BuildLoop(e)
				if err != nil {
					t.Fatal(err)
				}
				ctx := fmt.Sprintf("%s length %d kernel %d %v", proc.Name, length, i, e)
				if diffKernel(t, ctx, fast, brute, body, mopts.WarmupIters, mopts.MeasureIters) {
					detected++
				}
			}
			rate := float64(detected) / perLength
			t.Logf("%s length %d: period detected on %d/%d kernels", proc.Name, length, detected, perLength)
			if length == 5 && rate < floor {
				t.Errorf("%s length-5 kernels: detection rate %.3f < floor %.2f", proc.Name, rate, floor)
			}
		}
	}
}

// wideMachine draws a random LeastLoaded machine with 2-10 ports, µops
// on overlapping port subsets (some blocking) and a dependency-carrying
// body, so per-port loads diverge inside shared port groups.
func wideMachine(rng *rand.Rand) (machine.Config, []machine.InstSpec, []machine.Inst) {
	ports := 2 + rng.Intn(9)
	cfg := machine.Config{
		NumPorts:      ports,
		DispatchWidth: 1 + rng.Intn(6),
		WindowSize:    4 + rng.Intn(60),
		Policy:        machine.LeastLoaded,
		FrequencyGHz:  1,
	}
	specs := make([]machine.InstSpec, 2+rng.Intn(5))
	for i := range specs {
		uops := make([]machine.UopSpec, 1+rng.Intn(3))
		for j := range uops {
			uops[j] = machine.UopSpec{Ports: portmap.PortSet(rng.Intn(1<<ports-1) + 1), Block: 1}
			if rng.Intn(6) == 0 {
				uops[j].Block = 2 + rng.Intn(5)
			}
		}
		specs[i] = machine.InstSpec{Uops: uops, Latency: 1 + rng.Intn(8)}
	}
	body := make([]machine.Inst, 2+rng.Intn(9))
	for i := range body {
		in := machine.Inst{Spec: rng.Intn(len(specs))}
		for r := rng.Intn(3); r > 0; r-- {
			in.Reads = append(in.Reads, rng.Intn(10))
		}
		for w := rng.Intn(2); w >= 0; w-- {
			in.Writes = append(in.Writes, rng.Intn(10))
		}
		body[i] = in
	}
	return cfg, specs, body
}

// TestDifferentialWideRandomMachines runs wide random LeastLoaded
// machines with blocking µops against the brute-force twin and pins the
// detection rate.
func TestDifferentialWideRandomMachines(t *testing.T) {
	const trials, floor = 300, 0.90
	rng := rand.New(rand.NewSource(2020))
	detected := 0
	for trial := 0; trial < trials; trial++ {
		cfg, specs, body := wideMachine(rng)
		fast, brute := twin(t, cfg, specs)
		warmup, measureIters := 10+rng.Intn(40), 100+rng.Intn(200)
		ctx := fmt.Sprintf("trial %d (%+v, specs %+v, body %+v)", trial, cfg, specs, body)
		if diffKernel(t, ctx, fast, brute, body, warmup, measureIters) {
			detected++
		}
	}
	rate := float64(detected) / trials
	t.Logf("period detected on %d/%d wide random machines", detected, trials)
	if rate < floor {
		t.Errorf("wide random machines: detection rate %.3f < floor %.2f", rate, floor)
	}
}
