package measure

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"pmevo/internal/exp"
	"pmevo/internal/portmap"
	"pmevo/internal/runctrl"
	"pmevo/internal/throughput"
	"pmevo/internal/uarch"
)

// classSubset returns the IDs of up to perClass forms of every semantic
// class, the form subset the inference pipeline measures.
func classSubset(proc *uarch.Processor, perClass int) []int {
	var ids []int
	for _, class := range proc.ISA.Classes() {
		forms := proc.ISA.FormsInClass(class)
		for _, f := range forms[:min(perClass, len(forms))] {
			ids = append(ids, f.ID)
		}
	}
	return ids
}

// protocolExperiments returns the §4.1 singletons and pair experiments
// of a form subset, with weighted-pair counts from the ground-truth
// throughputs, in full-ISA form IDs.
func protocolExperiments(proc *uarch.Processor, ids []int) []portmap.Experiment {
	individual := make([]float64, len(ids))
	var es []portmap.Experiment
	for i, id := range ids {
		e := portmap.Experiment{{Inst: id, Count: 1}}
		individual[i] = throughput.OfExperiment(proc.GroundTruth, e)
		es = append(es, e)
	}
	for _, p := range exp.PairExperiments(individual) {
		full := make(portmap.Experiment, len(p))
		for i, t := range p {
			full[i] = portmap.InstCount{Inst: ids[t.Inst], Count: t.Count}
		}
		es = append(es, full)
	}
	return es
}

// randomExperiments returns n experiments of five forms drawn uniformly,
// repeats allowed, as the held-out validation sets are drawn.
func randomExperiments(proc *uarch.Processor, n int, seed int64) []portmap.Experiment {
	rng := rand.New(rand.NewSource(seed))
	es := make([]portmap.Experiment, n)
	for i := range es {
		for j := 0; j < 5; j++ {
			es[i] = append(es[i], portmap.InstCount{Inst: rng.Intn(proc.ISA.NumForms()), Count: 1})
		}
	}
	return es
}

// malformedExperiments covers every error the builders report, and
// experiments that only normalization makes buildable.
var malformedExperiments = []portmap.Experiment{
	nil,
	{},
	{{Inst: 0, Count: 0}},
	{{Inst: -5, Count: 0}, {Inst: 3, Count: 1}},
	{{Inst: 0, Count: -1}},
	{{Inst: 0, Count: 1}, {Inst: 1, Count: -3}},
	{{Inst: 0, Count: maxExperimentInsts + 1}},
	{{Inst: 0, Count: maxExperimentInsts}, {Inst: 1, Count: 1}},
	{{Inst: -1, Count: 1}},
	{{Inst: 1 << 20, Count: 1}},
	{{Inst: 7, Count: 2}, {Inst: 2, Count: 1}, {Inst: 7, Count: 1}, {Inst: 2, Count: 0}},
	{{Inst: 4, Count: 60}},
}

// checkArenaTwin builds e in the arena and with the reference builders
// and fails unless both return the same body, instance count and error.
// It reports whether the reference failed.
func checkArenaTwin(t testing.TB, h *Harness, a *loopArena, e portmap.Experiment) (failed bool) {
	t.Helper()
	ref, wantN, wantErr := h.BuildConcreteLoop(e)
	got, gotN, gotErr := a.build(h, e)
	if (wantErr == nil) != (gotErr == nil) || wantErr != nil && wantErr.Error() != gotErr.Error() {
		t.Fatalf("%v: arena error %v, reference error %v", e, gotErr, wantErr)
	}
	if wantErr != nil {
		return true
	}
	if want := ToMachineInsts(ref); gotN != wantN || !reflect.DeepEqual(got, want) {
		t.Fatalf("%v: arena body (%d instances)\n%v\nreference body (%d instances)\n%v", e, gotN, got, wantN, want)
	}
	return false
}

// TestArenaMatchesReference is the differential test of allocation-free
// loop construction: one arena, reused across every build, returns
// ToMachineInsts(BuildConcreteLoop(e)) and its instance count bit for
// bit — nil Reads and Writes included — and an error, with the same
// message, exactly when the reference errors. It covers every singleton,
// the pair experiments of the 2-forms-per-class subset, 1,000 random
// length-5 experiments per processor, malformed experiments, and
// harnesses whose pools are exhausted or invalid.
func TestArenaMatchesReference(t *testing.T) {
	for _, proc := range []*uarch.Processor{uarch.SKL(), uarch.ZEN(), uarch.A72()} {
		t.Run(proc.Name, func(t *testing.T) {
			es := exp.Singletons(proc.ISA.NumForms())
			es = append(es, protocolExperiments(proc, classSubset(proc, 2))...)
			es = append(es, randomExperiments(proc, 1000, 1)...)
			es = append(es, malformedExperiments...)

			h, err := NewHarness(proc, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			a := new(loopArena)
			for _, e := range es {
				checkArenaTwin(t, h, a, e)
			}

			// Two registers per class exhaust on every form with three
			// register operands of one class; the arena keeps building
			// after each failure.
			opts := DefaultOptions()
			opts.Pools = PoolSizes{GPR: 2, Vec: 2, FPR: 2, MemOffsets: 1}
			small, err := NewHarness(proc, opts)
			if err != nil {
				t.Fatal(err)
			}
			failed := 0
			for _, e := range es {
				if checkArenaTwin(t, small, a, e) {
					failed++
				}
			}
			if failed <= len(malformedExperiments) || failed == len(es) {
				t.Errorf("small pools: %d of %d experiments failed; want some exhausted pools and some builds", failed, len(es))
			}

			opts.Pools.GPR = 1
			invalid, err := NewHarness(proc, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !checkArenaTwin(t, invalid, a, es[0]) {
				t.Error("a one-register pool built a body")
			}
		})
	}
}

// distinctKeys counts the distinct kernel-cache keys of a batch's
// bodies, built by the reference builder.
func distinctKeys(t *testing.T, h *Harness, es []portmap.Experiment) int {
	t.Helper()
	keys := map[uint64]bool{}
	for _, e := range es {
		body, _, err := h.BuildLoop(e)
		if err != nil {
			t.Fatal(err)
		}
		keys[simKey(h.mach, h.opts.WarmupIters, h.opts.MeasureIters, body)] = true
	}
	return len(keys)
}

// TestKernelCacheMissesExact: on a flushed kernel cache, a batch makes
// exactly one simulation per distinct body, whatever the number of
// workers — SKL's 2-forms-per-class protocol experiments alias heavily,
// by count scaling and by forms of one class sharing a spec — and every
// other experiment is a hit.
func TestKernelCacheMissesExact(t *testing.T) {
	FlushSimCache()
	defer FlushSimCache()
	proc := uarch.SKL()
	es := protocolExperiments(proc, classSubset(proc, 2))
	h, err := NewHarness(proc, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	distinct := distinctKeys(t, h, es)
	if distinct >= len(es) {
		t.Fatalf("test premise wrong: %d experiments, %d distinct bodies", len(es), distinct)
	}
	if _, err := h.MeasureAll(context.Background(), es); err != nil {
		t.Fatal(err)
	}
	want := CacheStats{SimHits: int64(len(es) - distinct), SimMisses: int64(distinct)}
	if got := h.CacheStats(); got != want {
		t.Errorf("cache stats %+v, want %+v", got, want)
	}
}

// TestMeasureAllCanceledLeavesNoTrace: a canceled batch returns no
// results and leaves no trace — no noise drawn, no measurement counted,
// no cache traffic — so the next batch measures exactly what a fresh
// harness would.
func TestMeasureAllCanceledLeavesNoTrace(t *testing.T) {
	FlushSimCache()
	defer FlushSimCache()
	proc := uarch.SKL()
	es := protocolExperiments(proc, classSubset(proc, 1))
	h, err := NewHarness(proc, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got, err := h.MeasureAll(ctx, es); got != nil || !errors.Is(err, runctrl.ErrCanceled) {
		t.Fatalf("canceled batch returned %d results, error %v", len(got), err)
	}
	if n, st := h.Measurements(), h.CacheStats(); n != 0 || st != (CacheStats{}) {
		t.Fatalf("canceled batch left %d measurements and cache stats %+v", n, st)
	}
	got, err := h.MeasureAll(context.Background(), es)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewHarness(proc, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.MeasureAll(context.Background(), es)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("a canceled batch changed the next batch's measurements")
	}
}

// TestMeasureHitAllocatesNothing: once the kernel cache holds an
// experiment's body and the harness's arena pool is warm, measuring it
// again builds the body, keys it, hits and draws its noise without a
// single allocation.
func TestMeasureHitAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	proc := uarch.SKL()
	h, err := NewHarness(proc, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	add, _ := proc.ISA.FormByName("add_r64_r64")
	ld, _ := proc.ISA.FormByName("mov_r64_m64")
	e := portmap.Experiment{{Inst: add.ID, Count: 1}, {Inst: ld.ID, Count: 1}}
	for i := 0; i < 3; i++ { // fill the kernel cache and the arena pool
		if _, err := h.Measure(e); err != nil {
			t.Fatal(err)
		}
	}
	before := h.CacheStats()
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := h.Measure(e); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a kernel-cache hit allocates %.1f objects per Measure, want 0", allocs)
	}
	if d := h.CacheStats().Sub(before); d.SimMisses != 0 {
		t.Errorf("%d misses while measuring a cached body", d.SimMisses)
	}
}
