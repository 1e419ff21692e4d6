package twinbench

import (
	"fmt"
	"reflect"
	"time"

	"pmevo/internal/eval"
	"pmevo/internal/machine"
	"pmevo/internal/uarch"
)

// machineKernels are the kernel classes the machine driver times,
// built from a processor's instruction specs:
//
//   - latency: a single-register RAW chain on the processor's highest-
//     latency instruction. The window parks for a full latency between
//     issues, so stepping wastes the most cycles here (and period
//     detection and the kernel cache help least on first contact).
//   - divider: a chain of the instruction with the longest blocking
//     µop, the shape of a division latency measurement. Its spans are
//     bounded by both the result latency and the blocked pipe's
//     release, so the jump target composes the two event sources.
//     Independent dividers are issue-bound every Block cycles and sit
//     between the dense and latency regimes; the stress property tests
//     cover them for correctness.
//   - dense: independent instances of a minimum-latency single-µop
//     instruction. Every cycle issues, the fast-forward never engages,
//     and the pair pins that its gate costs nothing measurable.
func machineKernels(proc *uarch.Processor) []struct {
	name string
	body []machine.Inst
} {
	maxLat, maxLatSpec := 0, 0
	maxBlock, maxBlockSpec := 0, 0
	minLat, minLatSpec := 0, 0
	for id, spec := range proc.Specs {
		if spec.Latency > maxLat {
			maxLat, maxLatSpec = spec.Latency, id
		}
		for _, u := range spec.Uops {
			if u.Block > maxBlock {
				maxBlock, maxBlockSpec = u.Block, id
			}
		}
		if len(spec.Uops) == 1 && (minLat == 0 || spec.Latency < minLat) {
			minLat, minLatSpec = spec.Latency, id
		}
	}
	chain := make([]machine.Inst, 6)
	for i := range chain {
		chain[i] = machine.Inst{Spec: maxLatSpec, Reads: []int{0}, Writes: []int{0}}
	}
	div := make([]machine.Inst, 4)
	for i := range div {
		div[i] = machine.Inst{Spec: maxBlockSpec, Reads: []int{0}, Writes: []int{0}}
	}
	dense := make([]machine.Inst, 12)
	for i := range dense {
		dense[i] = machine.Inst{Spec: minLatSpec, Writes: []int{1 + i}}
	}
	return []struct {
		name string
		body []machine.Inst
	}{
		{"latency", chain},
		{"divider", div},
		{"dense", dense},
	}
}

// Machine times the simulator core with the event-driven fast-forward
// against the cycle-by-cycle stepper on every kernel class of each
// Table 1 processor. Period detection is off on both sides, so the pair
// times the core stepper alone. It fails unless both sides of every
// kernel give equal Result fields and the stepped side skips no cycle,
// so the timings always describe identical simulations.
func Machine(scale eval.Scale) (map[string]float64, error) {
	if err := scale.Validate(); err != nil {
		return nil, err
	}
	metrics := map[string]float64{}
	for _, name := range archs {
		// Enough iterations that each timed side runs for milliseconds
		// even on the fast path; both sides simulate every cycle of
		// every iteration, so cost scales linearly.
		if err := machineArch(metrics, name, 400*scale.MaxGenerations, 3); err != nil {
			return nil, err
		}
	}
	for _, kern := range []string{"latency", "divider", "dense"} {
		least := 0.0
		for _, name := range archs {
			if s := metrics["speedup_"+kern+"_"+name]; least == 0 || s < least {
				least = s
			}
		}
		metrics["speedup_"+kern+"_min"] = least
	}
	return metrics, nil
}

// machineArch times every kernel class on the named processor, reps
// runs of iters body iterations per side, and adds its metrics.
func machineArch(metrics map[string]float64, name string, iters, reps int) error {
	proc, err := uarch.ByName(name)
	if err != nil {
		return err
	}
	// sides[0] fast-forwards dead cycles, sides[1] steps every cycle.
	sides := [2]*machine.Machine{}
	for i := range sides {
		cfg := proc.Config
		cfg.PeriodDetectBudget = machine.PeriodDetectDisabled
		cfg.EventDrivenDisabled = i == 1
		if sides[i], err = machine.New(cfg, proc.Specs); err != nil {
			return err
		}
	}
	for _, kern := range machineKernels(proc) {
		var res [2]machine.Result
		var secs [2]float64
		for i, m := range sides {
			start := time.Now()
			for r := 0; r < reps; r++ {
				if res[i], err = m.Run(kern.body, iters); err != nil {
					return fmt.Errorf("machine bench %s/%s: %w", name, kern.name, err)
				}
			}
			secs[i] = time.Since(start).Seconds()
		}
		fast, stepped := res[0], res[1]
		skipped := fast.SkippedCycles
		fast.SkippedCycles = 0
		if stepped.SkippedCycles != 0 || !reflect.DeepEqual(fast, stepped) {
			return fmt.Errorf("machine bench %s/%s: event-driven run diverged from the stepped run (which must skip no cycle):\n fast %+v\n stepped %+v",
				name, kern.name, res[0], stepped)
		}
		suffix := kern.name + "_" + name
		metrics["cycles_"+suffix] = float64(fast.Cycles)
		metrics["skipped_cycles_"+suffix] = float64(skipped)
		metrics["speedup_"+suffix] = ratio(secs[1], secs[0])
		metrics["ns_per_iter_"+suffix] = ratio(secs[0]*1e9, float64(iters*reps))
	}
	return nil
}
