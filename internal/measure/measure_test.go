package measure

import (
	"context"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"pmevo/internal/isa"
	"pmevo/internal/machine"
	"pmevo/internal/portmap"
	"pmevo/internal/throughput"
	"pmevo/internal/uarch"
)

func TestDefaultPoolSizes(t *testing.T) {
	x86 := DefaultPoolSizes(isa.SyntheticX86())
	arm := DefaultPoolSizes(isa.SyntheticARM())
	if x86.GPR >= arm.GPR {
		t.Errorf("x86 GPR pool %d should be smaller than ARM %d", x86.GPR, arm.GPR)
	}
	if x86.MemOffsets < 1 || arm.MemOffsets < 1 {
		t.Error("memory offsets must be positive")
	}
}

func TestNewAllocatorRejectsTinyPools(t *testing.T) {
	if _, err := NewAllocator(PoolSizes{GPR: 1, Vec: 4, FPR: 4, MemOffsets: 4}); err == nil {
		t.Error("tiny GPR pool accepted")
	}
	if _, err := NewAllocator(PoolSizes{GPR: 4, Vec: 4, FPR: 4, MemOffsets: 0}); err == nil {
		t.Error("zero mem offsets accepted")
	}
}

// TestAllocatorAvoidsImmediateReuse verifies the core §4.2 property: a
// register written by one instruction is not read by the next few
// instructions (dependency distance is maximized).
func TestAllocatorAvoidsImmediateReuse(t *testing.T) {
	x86 := isa.SyntheticX86()
	f, ok := x86.FormByName("add_r64_r64")
	if !ok {
		t.Fatal("add_r64_r64 missing")
	}
	alloc, err := NewAllocator(PoolSizes{GPR: 12, Vec: 14, FPR: 14, MemOffsets: 8})
	if err != nil {
		t.Fatal(err)
	}
	var seq []*isa.Form
	for i := 0; i < 24; i++ {
		seq = append(seq, f)
	}
	insts, err := alloc.InstantiateSequence(seq)
	if err != nil {
		t.Fatal(err)
	}
	// add r, r is read-write on operand 0, read on operand 1. Track the
	// writer of each register and check the read distance.
	lastWriter := map[int]int{}
	minDist := len(insts)
	for i, in := range insts {
		for j, op := range in.Operands {
			spec := in.Form.Operands[j]
			if spec.Read {
				if w, ok := lastWriter[op.Reg]; ok {
					if d := i - w; d < minDist {
						minDist = d
					}
				}
			}
		}
		for j, op := range in.Operands {
			if in.Form.Operands[j].Write {
				lastWriter[op.Reg] = i
			}
		}
	}
	// With a 12-register pool and 2 registers per instruction, the
	// dependency distance should be at least ~5 instructions.
	if minDist < 5 {
		t.Errorf("minimum read-after-write distance = %d, want >= 5", minDist)
	}
}

func TestAllocatorDistinctOperandsWithinInstruction(t *testing.T) {
	arm := isa.SyntheticARM()
	f, ok := arm.FormByName("add_r64_r64_r64")
	if !ok {
		t.Fatal("add_r64_r64_r64 missing")
	}
	alloc, _ := NewAllocator(DefaultPoolSizes(arm))
	for i := 0; i < 10; i++ {
		in, err := alloc.Instantiate(f)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int]bool{}
		for _, op := range in.Operands {
			if op.Kind == isa.KindReg {
				if seen[op.Reg] {
					t.Fatalf("instruction %d reuses register %d across operands", i, op.Reg)
				}
				seen[op.Reg] = true
			}
		}
	}
}

func TestAllocatorRotatesMemOffsets(t *testing.T) {
	x86 := isa.SyntheticX86()
	f, ok := x86.FormByName("mov_r64_m64")
	if !ok {
		t.Fatal("mov_r64_m64 missing")
	}
	alloc, _ := NewAllocator(PoolSizes{GPR: 12, Vec: 14, FPR: 14, MemOffsets: 4})
	offsets := map[int]int{}
	for i := 0; i < 8; i++ {
		in, err := alloc.Instantiate(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range in.Operands {
			if op.Kind == isa.KindMem {
				offsets[op.Offset]++
			}
		}
	}
	if len(offsets) != 4 {
		t.Errorf("used %d distinct offsets, want 4", len(offsets))
	}
	for off, n := range offsets {
		if n != 2 {
			t.Errorf("offset %d used %d times, want 2 (round robin)", off, n)
		}
	}
}

func TestToMachineInstMapsMemory(t *testing.T) {
	x86 := isa.SyntheticX86()
	load, _ := x86.FormByName("mov_r64_m64")
	store, _ := x86.FormByName("mov_m64_r64")
	alloc, _ := NewAllocator(DefaultPoolSizes(x86))
	li, err := alloc.Instantiate(load)
	if err != nil {
		t.Fatal(err)
	}
	si, err := alloc.Instantiate(store)
	if err != nil {
		t.Fatal(err)
	}
	lm := ToMachineInst(li)
	sm := ToMachineInst(si)
	// Load: reads base pointer and the offset pseudo-register.
	readsBase := false
	readsPseudo := false
	for _, r := range lm.Reads {
		if r == basePtrID {
			readsBase = true
		}
		if r >= memBase && r < basePtrID {
			readsPseudo = true
		}
	}
	if !readsBase || !readsPseudo {
		t.Errorf("load reads = %v; want base pointer and mem pseudo-reg", lm.Reads)
	}
	// Store: writes the offset pseudo-register.
	writesPseudo := false
	for _, w := range sm.Writes {
		if w >= memBase && w < basePtrID {
			writesPseudo = true
		}
	}
	if !writesPseudo {
		t.Errorf("store writes = %v; want mem pseudo-reg", sm.Writes)
	}
}

func TestHarnessOptionsValidation(t *testing.T) {
	proc := uarch.SKL()
	bad := []Options{
		{UnrollLength: 0, Repetitions: 1, MeasureIters: 10},
		{UnrollLength: 50, Repetitions: 0, MeasureIters: 10},
		{UnrollLength: 50, Repetitions: 1, MeasureIters: 0},
		{UnrollLength: 50, Repetitions: 1, MeasureIters: 10, WarmupIters: -1},
	}
	for i, o := range bad {
		if _, err := NewHarness(proc, o); err == nil {
			t.Errorf("case %d: invalid options accepted", i)
		}
	}
}

func TestBuildLoopUnrolls(t *testing.T) {
	proc := uarch.SKL()
	opts := DefaultOptions()
	h, err := NewHarness(proc, opts)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := proc.ISA.FormByName("add_r64_r64")
	g, _ := proc.ISA.FormByName("imul_r64_r64")
	e := portmap.Experiment{{Inst: f.ID, Count: 1}, {Inst: g.ID, Count: 1}}
	body, instances, err := h.BuildLoop(e)
	if err != nil {
		t.Fatal(err)
	}
	if instances != 25 {
		t.Errorf("instances = %d, want 25 (50/2)", instances)
	}
	if len(body) != 50 {
		t.Errorf("body length = %d, want 50", len(body))
	}
	if _, _, err := h.BuildLoop(nil); err == nil {
		t.Error("empty experiment accepted")
	}
	if _, _, err := h.BuildLoop(portmap.Experiment{{Inst: 99999, Count: 1}}); err == nil {
		t.Error("out-of-range instruction accepted")
	}
}

// TestUnbuildableExperimentsRejected: an experiment with a negative
// count, or with more than maxExperimentInsts instructions, is an error
// from BuildLoop, Measure and MeasureAll alike. A negative count must
// neither be dropped (measuring a different experiment) nor divide by a
// zero-length sequence (a panic that kills the process when it happens
// on a MeasureAll pool goroutine), and an over-limit count must not be
// allocated.
func TestUnbuildableExperimentsRejected(t *testing.T) {
	h, err := NewHarness(uarch.SKL(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		e    portmap.Experiment
	}{
		{"all-negative", portmap.Experiment{{Inst: 0, Count: -1}}},
		{"mixed-sign", portmap.Experiment{{Inst: 0, Count: 1}, {Inst: 1, Count: -3}}},
		{"over-limit", portmap.Experiment{{Inst: 0, Count: maxExperimentInsts + 1}}},
		{"over-limit-sum", portmap.Experiment{{Inst: 0, Count: maxExperimentInsts}, {Inst: 1, Count: 1}}},
		{"overflowing-sum", portmap.Experiment{{Inst: 0, Count: math.MaxInt}, {Inst: 1, Count: math.MaxInt}}},
	}
	valid := portmap.Experiment{{Inst: 0, Count: 1}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if body, _, err := h.BuildLoop(c.e); err == nil {
				t.Errorf("BuildLoop built a %d-instruction body", len(body))
			}
			if v, err := h.Measure(c.e); err == nil {
				t.Errorf("Measure returned %v", v)
			}
			if vs, err := h.MeasureAll(context.Background(), []portmap.Experiment{valid, c.e}); err == nil {
				t.Errorf("MeasureAll returned %v", vs)
			}
		})
	}
}

// TestMeasureMatchesModelSingleALU is the end-to-end sanity check: a
// dependency-free ALU experiment on SKL must measure close to the
// LP-model prediction under the ground truth.
func TestMeasureMatchesModelSingleALU(t *testing.T) {
	proc := uarch.SKL()
	opts := DefaultOptions()
	opts.NoiseSigma = 0 // deterministic
	h, err := NewHarness(proc, opts)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := proc.ISA.FormByName("add_r64_r64")
	e := portmap.Experiment{{Inst: f.ID, Count: 1}}
	got, err := h.Measure(e)
	if err != nil {
		t.Fatal(err)
	}
	want := throughput.OfExperiment(proc.GroundTruth, e) // 1/4 cycle: 4 ALU ports
	if math.Abs(got-want) > 0.08 {
		t.Errorf("measured %g, model %g", got, want)
	}
}

func TestMeasurePairConflict(t *testing.T) {
	// Two shift instructions (p06 only) must measure ~1 cycle for the
	// pair (2 µops / 2 ports); a shift and a shuffle (p5) are disjoint
	// and must measure ~0.5+0.5 in parallel = max(0.5, 0.5)... per
	// experiment instance: masses p06:1, p5:1 → throughput 1? No:
	// Q={P0,P6}: 1/2; Q={P5}: 1 → 1. Both cases hand-checked below.
	proc := uarch.SKL()
	opts := DefaultOptions()
	opts.NoiseSigma = 0
	h, err := NewHarness(proc, opts)
	if err != nil {
		t.Fatal(err)
	}
	shl, _ := proc.ISA.FormByName("shl_r64_i8")
	shr, _ := proc.ISA.FormByName("shr_r64_i8")
	e := portmap.Experiment{{Inst: shl.ID, Count: 1}, {Inst: shr.ID, Count: 1}}
	got, err := h.Measure(e)
	if err != nil {
		t.Fatal(err)
	}
	want := throughput.OfExperiment(proc.GroundTruth, e) // 2 µops on p06 → 1.0
	if math.Abs(want-1.0) > 1e-9 {
		t.Fatalf("model says %g, hand calculation says 1.0", want)
	}
	if math.Abs(got-want) > 0.12 {
		t.Errorf("measured %g, model %g", got, want)
	}
}

func TestMeasureNoiseAndMedian(t *testing.T) {
	proc := uarch.SKL()
	opts := DefaultOptions()
	opts.NoiseSigma = 0.02
	opts.Repetitions = 7
	h, err := NewHarness(proc, opts)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := proc.ISA.FormByName("add_r64_r64")
	e := portmap.Experiment{{Inst: f.ID, Count: 1}}
	want := throughput.OfExperiment(proc.GroundTruth, e)
	got, err := h.Measure(e)
	if err != nil {
		t.Fatal(err)
	}
	// The median of 7 draws with 2% noise must stay within ~8%.
	if math.Abs(got-want)/want > 0.08 {
		t.Errorf("noisy measurement %g deviates too far from %g", got, want)
	}
}

func TestMeasureAllAndAccounting(t *testing.T) {
	proc := uarch.A72()
	opts := DefaultOptions()
	opts.Repetitions = 3
	h, err := NewHarness(proc, opts)
	if err != nil {
		t.Fatal(err)
	}
	f := proc.ISA.Form(0)
	g := proc.ISA.Form(1)
	es := []portmap.Experiment{
		{{Inst: f.ID, Count: 1}},
		{{Inst: g.ID, Count: 1}},
		{{Inst: f.ID, Count: 1}, {Inst: g.ID, Count: 1}},
	}
	tps, err := h.MeasureAll(context.Background(), es)
	if err != nil {
		t.Fatal(err)
	}
	if len(tps) != 3 {
		t.Fatalf("got %d throughputs", len(tps))
	}
	for i, tp := range tps {
		if tp <= 0 {
			t.Errorf("experiment %d: non-positive throughput %g", i, tp)
		}
	}
	if h.Measurements() != 3 {
		t.Errorf("Measurements = %d, want 3", h.Measurements())
	}
	cost := h.SimulatedBenchmarkingCost()
	wantCost := 3 * (opts.CompileOverheadS + 3*opts.LoopTimeMS/1000)
	if math.Abs(cost-wantCost) > 1e-9 {
		t.Errorf("SimulatedBenchmarkingCost = %g, want %g", cost, wantCost)
	}
}

func TestLoopBound(t *testing.T) {
	proc := uarch.SKL() // 3.4 GHz
	h, err := NewHarness(proc, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// 10 ms at 3.4 GHz = 34e6 cycles; at 17 cycles/iter → 2e6 iterations.
	if got := h.LoopBound(17); got != 2_000_000 {
		t.Errorf("LoopBound(17) = %d, want 2000000", got)
	}
	if got := h.LoopBound(0); got != 1 {
		t.Errorf("LoopBound(0) = %d, want 1", got)
	}
}

func TestEmitCX86(t *testing.T) {
	proc := uarch.SKL()
	opts := DefaultOptions()
	h, err := NewHarness(proc, opts)
	if err != nil {
		t.Fatal(err)
	}
	add, _ := proc.ISA.FormByName("add_r64_r64")
	ld, _ := proc.ISA.FormByName("mov_r64_m64")
	e := portmap.Experiment{{Inst: add.ID, Count: 1}, {Inst: ld.ID, Count: 1}}
	prog, err := h.EmitProgram(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"gettimeofday(&start, NULL);",
		"gettimeofday(&end, NULL);",
		"__asm__ volatile(",
		"add %%r",        // an x86 add on GPRs, % escaped in the template
		"(%%r15), %%r",   // the load reads memory via the base pointer into a GPR
		`"cc", "memory"`, // the body clobbers the flags and memory
		"3.4",            // frequency in the throughput formula
		"for (long i = 0; i < loop_bound; i++)",
	} {
		if !strings.Contains(prog, want) {
			t.Errorf("emitted C missing %q:\n%s", want, prog)
		}
	}
}

// TestEmitCARM: the A64 program names x registers and reads memory
// through the x28 base pointer. Its asm statement clobbers the flags,
// memory and every register the body names, a d or s register by the v
// register it aliases, but not the base pointer, which is an input.
func TestEmitCARM(t *testing.T) {
	proc := uarch.A72()
	h, err := NewHarness(proc, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var e portmap.Experiment
	for _, name := range []string{"add_r64_r64_r64", "ldr_roff_r64_m64", "cmp_r64_r64",
		"add_v_v128_v128_v128", "fadd_f64_f64_f64", "fcmp_f32_f32"} {
		f, ok := proc.ISA.FormByName(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		e = append(e, portmap.InstCount{Inst: f.ID, Count: 1})
	}
	prog, err := h.EmitProgram(e)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prog, "add x") {
		t.Errorf("ARM program should use xN registers:\n%s", prog)
	}
	if !strings.Contains(prog, "[x28, #") {
		t.Errorf("ARM program should use the x28 base pointer:\n%s", prog)
	}
	_, asm, _ := strings.Cut(prog, "__asm__ volatile(")
	body, list, ok := strings.Cut(asm, `: : "r"(base) : `)
	if !ok {
		t.Fatalf("no clobber list:\n%s", prog)
	}
	list, _, _ = strings.Cut(list, ");")
	clobbered := map[string]bool{}
	for _, c := range strings.Split(list, ", ") {
		clobbered[strings.Trim(c, `"`)] = true
	}
	regs := regexp.MustCompile(`\b([xvds])(\d+)\b`).FindAllStringSubmatch(body, -1)
	if len(regs) == 0 {
		t.Fatalf("body names no registers:\n%s", body)
	}
	for _, r := range regs {
		name := r[0]
		if r[1] == "d" || r[1] == "s" {
			name = "v" + r[2]
		}
		if name != "x28" && !clobbered[name] {
			t.Errorf("body names %s, but %s is not clobbered: %s", r[0], name, list)
		}
	}
	for _, want := range []string{"cc", "memory"} {
		if !clobbered[want] {
			t.Errorf("%q is not clobbered: %s", want, list)
		}
	}
	if clobbered["x28"] {
		t.Errorf("the x28 base pointer is clobbered: %s", list)
	}
}

func TestRenderAsmVariants(t *testing.T) {
	x86 := isa.SyntheticX86()
	alloc, _ := NewAllocator(DefaultPoolSizes(x86))
	vadd, _ := x86.FormByName("vaddps_v256_v256_v256")
	in, err := alloc.Instantiate(vadd)
	if err != nil {
		t.Fatal(err)
	}
	s := RenderAsm("x86-64", in)
	if !strings.Contains(s, "ymm") {
		t.Errorf("256-bit operand should render as ymm: %q", s)
	}
	shl, _ := x86.FormByName("shl_r64_i8")
	in2, _ := alloc.Instantiate(shl)
	s2 := RenderAsm("x86-64", in2)
	if !strings.Contains(s2, "$") {
		t.Errorf("immediate should render with $: %q", s2)
	}
}

// TestRenderAsmOperandOrder: x86 renders in AT&T order, sources first,
// so a load lists its memory operand first and a store last; A64 keeps
// the forms' destination-first order.
func TestRenderAsmOperandOrder(t *testing.T) {
	x86 := isa.SyntheticX86()
	alloc, _ := NewAllocator(DefaultPoolSizes(x86))
	render := func(a *isa.ISA, name string) string {
		t.Helper()
		f, ok := a.FormByName(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		in, err := alloc.Instantiate(f)
		if err != nil {
			t.Fatal(err)
		}
		return RenderAsm(a.Name, in)
	}
	if s := render(x86, "mov_r64_m64"); !strings.HasPrefix(s, "mov 0(%r15), %r") {
		t.Errorf("x86 load renders as %q, want its memory operand first", s)
	}
	if s := render(x86, "mov_m64_r64"); !strings.HasPrefix(s, "mov %r") || !strings.HasSuffix(s, "(%r15)") {
		t.Errorf("x86 store renders as %q, want its memory operand last", s)
	}
	if s := render(x86, "shl_r32_i8"); !strings.HasPrefix(s, "shl $2, %e") {
		t.Errorf("x86 shift renders as %q, want the immediate first and a 32-bit register", s)
	}
	arm := isa.SyntheticARM()
	alloc, _ = NewAllocator(DefaultPoolSizes(arm))
	if s := render(arm, "ldr_r64_m64"); !strings.HasPrefix(s, "ldr x") || !strings.HasSuffix(s, "[x28, #0]") {
		t.Errorf("A64 load renders as %q, want the destination first", s)
	}
}

// x86CompileSubstitutes picks a real instruction for the operand
// signatures whose first form only approximates one (the synthetic ISA
// has movzx r64, r32 and a two-operand vcvtsi2sd); x86Unassemblable
// lists the signatures with no form that assembles, because the
// synthetic vpinsrd and vpinsrq drop their lane immediate.
var (
	x86CompileSubstitutes = map[string]string{
		"r64_r32":  "movsxd_r64_r32",
		"v128_r64": "vmovq_v128_r64",
	}
	x86Unassemblable = map[string]bool{"v128_v128_r32": true, "v128_v128_r64": true}
)

// TestEmitCCompiles compiles the emitted program of one experiment per
// x86 operand signature on SKL and ZEN with the system C compiler,
// which must accept the inline assembly: % escaped in the extended-asm
// template, AT&T operand order and register names of the operands'
// widths. It skips where no cc is installed.
func TestEmitCCompiles(t *testing.T) {
	cc, err := exec.LookPath("cc")
	if err != nil {
		t.Skip("no C compiler")
	}
	obj := filepath.Join(t.TempDir(), "prog.o")
	for _, proc := range []*uarch.Processor{uarch.SKL(), uarch.ZEN()} {
		h, err := NewHarness(proc, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for i := 0; i < proc.ISA.NumForms(); i++ {
			f := proc.ISA.Form(i)
			sig := strings.TrimPrefix(f.Name(), f.Mnemonic+"_")
			if seen[sig] || x86Unassemblable[sig] {
				continue
			}
			seen[sig] = true
			if name, ok := x86CompileSubstitutes[sig]; ok {
				if f, ok = proc.ISA.FormByName(name); !ok {
					t.Fatalf("%s missing", name)
				}
			}
			prog, err := h.EmitProgram(portmap.Experiment{{Inst: f.ID, Count: 1}})
			if err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command(cc, "-O2", "-c", "-x", "c", "-o", obj, "-")
			cmd.Stdin = strings.NewReader(prog)
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Errorf("%s %s: %v\n%s", proc.Name, f.Name(), err, out)
			}
		}
	}
}

// TestMeasureAllMatchesSequentialMeasure pins the parallelization
// contract of MeasureAll: fanning the simulations out over all cores
// must leave the results bit-identical to sequential Measure calls,
// because noise is drawn in experiment order either way.
func TestMeasureAllMatchesSequentialMeasure(t *testing.T) {
	proc := uarch.SKL()
	es := []portmap.Experiment{}
	for i := 0; i < 12; i++ {
		es = append(es, portmap.Experiment{{Inst: proc.ISA.Form(i).ID, Count: 1 + i%3}})
	}
	seq, err := NewHarness(proc, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var want []float64
	for _, e := range es {
		tp, err := seq.Measure(e)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, tp)
	}
	par, err := NewHarness(proc, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	got, err := par.MeasureAll(context.Background(), es)
	if err != nil {
		t.Fatal(err)
	}
	for i := range es {
		if got[i] != want[i] {
			t.Errorf("experiment %d: MeasureAll %g != Measure %g", i, got[i], want[i])
		}
	}
	if par.Measurements() != seq.Measurements() {
		t.Errorf("accounting diverged: %d vs %d", par.Measurements(), seq.Measurements())
	}
}

// TestMeasureAllKernelCacheBitExact is the fixed-seed golden test of the
// kernel-simulation cache: MeasureAll over an experiment list with
// count-scaled aliases and literal repeats must produce bit-identical
// outputs with the cache enabled and disabled (the cache sits below the
// noise layer, which draws per measurement in experiment order either
// way).
func TestMeasureAllKernelCacheBitExact(t *testing.T) {
	proc := uarch.SKL()
	var es []portmap.Experiment
	for i := 0; i < 8; i++ {
		es = append(es, portmap.Experiment{{Inst: proc.ISA.Form(i).ID, Count: 1}})
		es = append(es, portmap.Experiment{{Inst: proc.ISA.Form(i).ID, Count: 2}}) // body-aliases the singleton
	}
	es = append(es, es[0], es[1]) // literal repeats
	opts := DefaultOptions()
	opts.Seed = 42

	FlushSimCache()
	defer FlushSimCache()
	cached, err := NewHarness(proc, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cached.MeasureAll(context.Background(), es)
	if err != nil {
		t.Fatal(err)
	}

	optsOff := opts
	optsOff.DisableSimCache = true
	plain, err := NewHarness(proc, optsOff)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.MeasureAll(context.Background(), es)
	if err != nil {
		t.Fatal(err)
	}

	// Full brute force: cache off, steady-state period detection off, and
	// the event-driven fast-forward off.
	bruteProc := uarch.SKL()
	bruteProc.Config.PeriodDetectBudget = machine.PeriodDetectDisabled
	bruteProc.Config.EventDrivenDisabled = true
	brute, err := NewHarness(bruteProc, optsOff)
	if err != nil {
		t.Fatal(err)
	}
	wantBrute, err := brute.MeasureAll(context.Background(), es)
	if err != nil {
		t.Fatal(err)
	}

	for i := range es {
		if got[i] != want[i] {
			t.Errorf("experiment %d: cached %v != uncached %v", i, got[i], want[i])
		}
		if got[i] != wantBrute[i] {
			t.Errorf("experiment %d: fast path %v != brute-force simulation %v", i, got[i], wantBrute[i])
		}
	}
	st := cached.CacheStats()
	if st.SimHits+st.SimMisses != int64(len(es)) {
		t.Errorf("hits+misses = %d, want %d simulations", st.SimHits+st.SimMisses, len(es))
	}
	// On the flushed cache the first batch simulates each distinct body
	// exactly once, however its experiments were scheduled.
	if distinct := distinctKeys(t, cached, es); st.SimMisses != int64(distinct) {
		t.Errorf("first batch missed %d times for %d distinct bodies", st.SimMisses, distinct)
	}
	// Re-measuring the same batch must be served from the cache (every
	// key was inserted by the first batch; nothing else writes between).
	again, err := cached.MeasureAll(context.Background(), es)
	if err != nil {
		t.Fatal(err)
	}
	for i := range es {
		if again[i] == got[i] {
			t.Errorf("experiment %d: identical noisy value on re-measurement; rng did not advance", i)
		}
	}
	st2 := cached.CacheStats()
	if delta := st2.SimHits - st.SimHits; delta != int64(len(es)) {
		t.Errorf("second batch hit %d of %d simulations", delta, len(es))
	}
	off := plain.CacheStats()
	if off.SimHits != 0 || off.SimMisses != 0 {
		t.Errorf("disabled cache recorded traffic: %+v", off)
	}
}

// TestKernelCacheAliasedBodies pins the aliasing property the body-level
// cache key exists for: a singleton {i→1} and its count-scaled variant
// {i→k} unroll to the identical concrete loop body.
func TestKernelCacheAliasedBodies(t *testing.T) {
	proc := uarch.SKL()
	h, err := NewHarness(proc, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	f, _ := proc.ISA.FormByName("add_r64_r64")
	b1, _, err := h.BuildLoop(portmap.Experiment{{Inst: f.ID, Count: 1}})
	if err != nil {
		t.Fatal(err)
	}
	b2, _, err := h.BuildLoop(portmap.Experiment{{Inst: f.ID, Count: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(b1) != len(b2) {
		t.Fatalf("aliased bodies differ in length: %d vs %d", len(b1), len(b2))
	}
	k1 := simKey(h.mach, 1, 1, b1)
	k2 := simKey(h.mach, 1, 1, b2)
	if k1 != k2 {
		t.Fatal("aliased bodies produce different cache keys")
	}
	// Distinct iteration options must not alias.
	if simKey(h.mach, 1, 1, b1) == simKey(h.mach, 2, 1, b1) ||
		simKey(h.mach, 1, 1, b1) == simKey(h.mach, 1, 2, b1) {
		t.Error("cache key ignores the iteration counts")
	}
	// Class-level canonicalization: two forms with identical simulator
	// specs (same semantic class) produce aliased singleton kernels.
	g, ok := proc.ISA.FormByName("sub_r64_r64")
	if !ok {
		t.Skip("sub_r64_r64 not in ISA")
	}
	b3, _, err := h.BuildLoop(portmap.Experiment{{Inst: g.ID, Count: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if g.ID == f.ID {
		t.Fatal("expected distinct forms")
	}
	if simKey(h.mach, 1, 1, b3) != k1 {
		t.Error("same-class forms (identical specs) should alias in the kernel cache")
	}
}

// TestSimKeyLengthPacking is the regression test for the read/write
// list-length encoding. The old key packed both lengths into one
// 16-bit-shifted word (len(reads)<<16 | len(writes)), so a write list
// of ≥ 2^16 entries overflowed into the reads field and distinct
// (reads, writes) splits collapsed to one packed word — e.g. (1, 2^16)
// and (0, 2^16) OR to the same value. Lengths now enter the key as two
// separate fingerprint combines, which is injective.
func TestSimKeyLengthPacking(t *testing.T) {
	// The packed-word collision the old encoding allowed.
	oldPacked := func(reads, writes int) uint64 { return uint64(reads)<<16 | uint64(writes) }
	if oldPacked(1, 1<<16) != oldPacked(0, 1<<16) {
		t.Fatal("test premise wrong: legacy packing should conflate these length pairs")
	}

	proc := uarch.SKL()
	h, err := NewHarness(proc, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	regs := make([]int, 1<<16)
	body := func(reads, writes []int) []machine.Inst {
		return []machine.Inst{{Spec: 0, Reads: reads, Writes: writes}}
	}
	a := body(regs[:1], regs[:1<<16])
	b := body(nil, regs[:1<<16])
	if simKey(h.mach, 1, 1, a) == simKey(h.mach, 1, 1, b) {
		t.Error("bodies whose legacy length words collide alias in the cache key")
	}
	// Boundary splits with identical concatenated register streams must
	// stay distinct (the job of the length prefix).
	c := body([]int{1, 2}, []int{3})
	d := body([]int{1}, []int{2, 3})
	if simKey(h.mach, 1, 1, c) == simKey(h.mach, 1, 1, d) {
		t.Error("read/write boundary splits alias in the cache key")
	}
	// And equal bodies must still agree.
	if simKey(h.mach, 1, 1, a) != simKey(h.mach, 1, 1, body(regs[:1], regs[:1<<16])) {
		t.Error("equal bodies produce different keys")
	}
}

// TestSimCacheDiskWarmStart is the end-to-end golden test of the
// persistence seam: a MeasureAll warm-started from a spilled cache file
// in a "fresh process" (simulated by flushing the in-memory cache) must
// be bit-identical to the cold run, report its hits as disk-warm, and
// degrade to a cold start — with identical results — when the file is
// missing, truncated, or corrupt.
func TestSimCacheDiskWarmStart(t *testing.T) {
	proc := uarch.A72()
	var es []portmap.Experiment
	for i := 0; i < 6; i++ {
		es = append(es, portmap.Experiment{{Inst: proc.ISA.Form(i).ID, Count: 1 + i%2}})
	}
	opts := DefaultOptions()
	opts.Seed = 99
	measureAll := func() ([]float64, CacheStats) {
		h, err := NewHarness(proc, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := h.MeasureAll(context.Background(), es)
		if err != nil {
			t.Fatal(err)
		}
		return got, h.CacheStats()
	}

	FlushSimCache()
	want, coldStats := measureAll()
	if coldStats.SimWarmHits != 0 {
		t.Fatalf("cold run reported %d warm hits", coldStats.SimWarmHits)
	}
	path := filepath.Join(t.TempDir(), "simcache.pmc")
	if err := SaveSimCache(path); err != nil {
		t.Fatal(err)
	}

	// "Fresh process": empty in-memory cache, warm-started from disk.
	FlushSimCache()
	loaded, lerr := LoadSimCache(path)
	if loaded == 0 {
		t.Fatalf("loaded no entries (err %v)", lerr)
	}
	procBefore := ProcessCacheStats()
	got, warmStats := measureAll()
	for i := range es {
		if got[i] != want[i] {
			t.Errorf("experiment %d: warm %v != cold %v", i, got[i], want[i])
		}
	}
	if warmStats.SimMisses != 0 {
		t.Errorf("warm run missed %d times; every kernel was spilled", warmStats.SimMisses)
	}
	if warmStats.SimWarmHits == 0 || warmStats.SimWarmHits != warmStats.SimHits {
		t.Errorf("warm run hits not attributed to disk: %+v", warmStats)
	}
	if d := ProcessCacheStats().Sub(procBefore); d.SimWarmHits != warmStats.SimWarmHits {
		t.Errorf("process-wide warm delta %d != harness warm hits %d", d.SimWarmHits, warmStats.SimWarmHits)
	}

	// Damaged or missing files must cold-start with identical results.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(name string, mutate func() error) {
		t.Run(name, func(t *testing.T) {
			if err := mutate(); err != nil {
				t.Fatal(err)
			}
			FlushSimCache()
			loaded, lerr := LoadSimCache(path)
			if loaded != 0 || lerr == nil {
				t.Fatalf("damaged file loaded %d entries (err %v)", loaded, lerr)
			}
			got, stats := measureAll()
			for i := range es {
				if got[i] != want[i] {
					t.Errorf("experiment %d: after failed load %v != cold %v", i, got[i], want[i])
				}
			}
			if stats.SimWarmHits != 0 {
				t.Errorf("failed load produced %d warm hits", stats.SimWarmHits)
			}
		})
	}
	corrupt("truncated", func() error { return os.WriteFile(path, data[:len(data)/2], 0o644) })
	corrupt("bit-flipped", func() error {
		b := append([]byte(nil), data...)
		b[len(b)/2] ^= 0x40
		return os.WriteFile(path, b, 0o644)
	})
	corrupt("missing", func() error { return os.Remove(path) })
	FlushSimCache()
}

// TestMeasureNoiseStreamIndependentOfCache pins the noise-ordering
// guarantee directly: measuring the same experiment twice must give two
// different noisy values (the rng advances per measurement), and the
// pair must be identical between a cache-on and a cache-off harness.
func TestMeasureNoiseStreamIndependentOfCache(t *testing.T) {
	proc := uarch.ZEN()
	e := portmap.Experiment{{Inst: proc.ISA.Form(0).ID, Count: 1}}
	run := func(disable bool) [2]float64 {
		opts := DefaultOptions()
		opts.Seed = 7
		opts.DisableSimCache = disable
		h, err := NewHarness(proc, opts)
		if err != nil {
			t.Fatal(err)
		}
		var out [2]float64
		for i := range out {
			v, err := h.Measure(e)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = v
		}
		return out
	}
	on := run(false)
	off := run(true)
	if on != off {
		t.Errorf("noise stream diverged: cache on %v, off %v", on, off)
	}
	if on[0] == on[1] {
		t.Error("repeated measurements returned identical noisy values; noise not drawn per measurement")
	}
}

// TestKernelCacheKeyIncludesBudget pins that the iteration budget is
// part of the kernel-cache key: a second harness measuring the same
// experiments under a different MeasureIters misses the cache, and its
// results stay bit-identical to an uncached harness with the same
// configuration.
func TestKernelCacheKeyIncludesBudget(t *testing.T) {
	FlushSimCache()
	defer FlushSimCache()
	proc := uarch.SKL()
	var es []portmap.Experiment
	for i := 0; i < 6; i++ {
		es = append(es, portmap.Experiment{{Inst: proc.ISA.Form(i).ID, Count: 1}})
	}
	opts := DefaultOptions()
	opts.Seed = 17

	a, err := NewHarness(proc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.MeasureAll(context.Background(), es); err != nil {
		t.Fatal(err)
	}

	optsB := opts
	optsB.MeasureIters = opts.MeasureIters + 80 // same bodies, new cache keys
	b, err := NewHarness(proc, optsB)
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.MeasureAll(context.Background(), es)
	if err != nil {
		t.Fatal(err)
	}
	// Keys from harness A never hit (the budget is part of the key): every
	// simulation B actually runs is a miss, and its only hits are bodies
	// aliased within its own batch.
	if st := b.CacheStats(); st.SimMisses == 0 {
		t.Fatal("budget change produced no kernel-cache misses")
	}

	optsOff := optsB
	optsOff.DisableSimCache = true
	plain, err := NewHarness(proc, optsOff)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.MeasureAll(context.Background(), es)
	if err != nil {
		t.Fatal(err)
	}
	for i := range es {
		if got[i] != want[i] {
			t.Errorf("experiment %d: cached %v != uncached %v", i, got[i], want[i])
		}
	}
}
