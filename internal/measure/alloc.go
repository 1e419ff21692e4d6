// Package measure implements the throughput measurement methodology of
// paper §4.2: instruction forms are instantiated with concrete operands
// by a register allocator that avoids data dependencies, the sequence is
// unrolled into a loop body of ~50 instructions, and the loop is run to a
// steady state whose cycles-per-iteration give the throughput
// (Definition 1).
//
// In the paper, the loop is emitted as C-with-inline-assembly, compiled,
// and timed with gettimeofday on real hardware. Here the loop runs on the
// cycle-level simulator of internal/machine, with a configurable noise
// model standing in for clock jitter; the C emitter is retained (EmitC)
// to document and test the code-generation scheme.
package measure

import (
	"fmt"
	"slices"

	"pmevo/internal/isa"
	"pmevo/internal/machine"
	"pmevo/internal/portmap"
)

// Register ID space: each register class gets a disjoint ID range so the
// simulator's dependency tracking can mix classes freely.
const (
	gprBase   = 0
	vecBase   = 1000
	fprBase   = 2000
	memBase   = 3000 // pseudo-registers modeling distinct memory offsets
	basePtrID = 4000 // the memory base pointer (never written)
)

// PoolSizes configures how many architectural registers the allocator
// may use per class. Using many registers maximizes dependency distance
// (§4.2: "Using as many different registers as available").
type PoolSizes struct {
	GPR int
	Vec int
	FPR int
	// MemOffsets is the number of distinct constant offsets used to
	// instantiate memory operands without aliasing.
	MemOffsets int
}

// DefaultPoolSizes returns realistic pool sizes for the given ISA:
// x86-64 has 16 GPRs and 16 vector registers (minus stack/base pointers
// and scratch), ARMv8-A has 31 GPRs and 32 vector registers.
func DefaultPoolSizes(a *isa.ISA) PoolSizes {
	if a.Name == "ARMv8-A" {
		return PoolSizes{GPR: 26, Vec: 30, FPR: 30, MemOffsets: 8}
	}
	return PoolSizes{GPR: 12, Vec: 14, FPR: 14, MemOffsets: 8}
}

// Operand is a concrete operand produced by the allocator.
type Operand struct {
	// Kind mirrors the form's operand kind.
	Kind isa.OperandKind
	// Reg is the architectural register index within its class pool
	// (for KindReg), or the base pointer for KindMem.
	Reg int
	// Class is the register class of Reg.
	Class isa.RegClass
	// Offset is the memory offset index (for KindMem).
	Offset int
	// Imm is the immediate value (for KindImm).
	Imm int64
}

// Inst is an instruction instance with concrete operands.
type Inst struct {
	Form     *isa.Form
	Operands []Operand
}

// Allocator assigns registers to instruction form operands while
// avoiding read-after-write dependencies (§4.2):
//
//   - read operands get the least recently written register, so any
//     pending write to it lies as far in the past as possible;
//   - written operands get the most recently read register, whose value
//     has already been consumed and which readers will now avoid.
//
// Memory operands use a dedicated base pointer plus rotating constant
// offsets so consecutive memory accesses touch distinct addresses.
//
// The state is one slice per register class, reset in place, so the
// loop arena (loopArena) reuses one allocator across builds.
type Allocator struct {
	sizes PoolSizes
	pools [3]regPool // GPR, Vec, FPR; see pool
	clock int        // the current instruction's timestamp
	mem   int        // next memory offset (rotating)
}

// regPool is one register class: per register, the timestamps of its
// last read and last write, and of the instruction that last took it
// (usedAt == clock marks it as taken by the current instruction).
type regPool []struct{ lastRead, lastWrite, usedAt int }

// NewAllocator creates an allocator with the given pool sizes.
func NewAllocator(sizes PoolSizes) (*Allocator, error) {
	a := new(Allocator)
	if err := a.reset(sizes); err != nil {
		return nil, err
	}
	return a, nil
}

// reset validates the pool sizes and returns the allocator to its
// initial state, reusing its storage.
func (a *Allocator) reset(sizes PoolSizes) error {
	if sizes.GPR < 2 || sizes.Vec < 2 || sizes.FPR < 2 {
		return fmt.Errorf("measure: register pools too small: %+v", sizes)
	}
	if sizes.MemOffsets < 1 {
		return fmt.Errorf("measure: need at least one memory offset")
	}
	a.sizes, a.clock, a.mem = sizes, 0, 0
	for i, n := range [3]int{sizes.GPR, sizes.Vec, sizes.FPR} {
		p := slices.Grow(a.pools[i][:0], n)[:n]
		for r := range p {
			p[r].lastRead, p[r].lastWrite, p[r].usedAt = -1, -1, 0
		}
		a.pools[i] = p
	}
	return nil
}

// pool returns the register pool of class c, or nil if c has none.
func (a *Allocator) pool(c isa.RegClass) regPool {
	if c < isa.ClassGPR || c > isa.ClassFPR {
		return nil
	}
	return a.pools[c-isa.ClassGPR]
}

// pickRead selects a register for a read (or read-write) operand:
// the least recently written register, ties broken by the least recently
// read one, excluding registers already used by this instruction.
func (a *Allocator) pickRead(p regPool) int {
	best := -1
	for r := range p {
		if p[r].usedAt == a.clock {
			continue
		}
		if best < 0 ||
			p[r].lastWrite < p[best].lastWrite ||
			(p[r].lastWrite == p[best].lastWrite && p[r].lastRead < p[best].lastRead) {
			best = r
		}
	}
	return best
}

// pickWrite selects a register for a write-only operand: the most
// recently read register, ties broken by the least recently written one.
func (a *Allocator) pickWrite(p regPool) int {
	best := -1
	for r := range p {
		if p[r].usedAt == a.clock {
			continue
		}
		if best < 0 ||
			p[r].lastRead > p[best].lastRead ||
			(p[r].lastRead == p[best].lastRead && p[r].lastWrite < p[best].lastWrite) {
			best = r
		}
	}
	return best
}

// check reports why f cannot be instantiated: a register operand of a
// class without a pool, or more register operands of one class than the
// pool has registers. It changes no state, so a build can reject an
// experiment before it starts, and assign never runs out of registers.
func (a *Allocator) check(f *isa.Form) error {
	var taken [3]int
	for _, op := range f.Operands {
		if op.Kind != isa.KindReg {
			continue
		}
		p := a.pool(op.Class)
		if p == nil {
			return fmt.Errorf("measure: no pool for register class %v", op.Class)
		}
		k := op.Class - isa.ClassGPR
		taken[k]++
		if taken[k] > len(p) {
			return fmt.Errorf("measure: register pool %v exhausted for %s", op.Class, f.Name())
		}
	}
	return nil
}

// assign returns the concrete operand for operand i of f in the current
// instruction. It is the one allocation policy of the package: Instantiate
// and the loop arena both call it, after check(f) passed and after
// advancing the clock once per instruction.
func (a *Allocator) assign(f *isa.Form, i int) Operand {
	op := f.Operands[i]
	switch op.Kind {
	case isa.KindImm:
		return Operand{Kind: isa.KindImm, Imm: int64(1 + i)}
	case isa.KindMem:
		off := a.mem
		a.mem = (a.mem + 1) % a.sizes.MemOffsets
		return Operand{
			Kind:   isa.KindMem,
			Class:  isa.ClassGPR,
			Reg:    0, // the dedicated base pointer
			Offset: off,
		}
	case isa.KindReg:
		p := a.pool(op.Class)
		var r int
		if op.Read {
			r = a.pickRead(p)
		} else {
			r = a.pickWrite(p)
		}
		p[r].usedAt = a.clock
		if op.Read {
			p[r].lastRead = a.clock
		}
		if op.Write {
			p[r].lastWrite = a.clock
		}
		return Operand{Kind: isa.KindReg, Class: op.Class, Reg: r}
	}
	return Operand{}
}

// Instantiate assigns concrete operands to one instruction form.
func (a *Allocator) Instantiate(f *isa.Form) (Inst, error) {
	if err := a.check(f); err != nil {
		return Inst{}, err
	}
	a.clock++
	inst := Inst{Form: f, Operands: make([]Operand, len(f.Operands))}
	for i := range f.Operands {
		inst.Operands[i] = a.assign(f, i)
	}
	return inst, nil
}

// InstantiateSequence allocates operands for a whole instruction
// sequence in order.
func (a *Allocator) InstantiateSequence(seq []*isa.Form) ([]Inst, error) {
	out := make([]Inst, 0, len(seq))
	for _, f := range seq {
		inst, err := a.Instantiate(f)
		if err != nil {
			return nil, err
		}
		out = append(out, inst)
	}
	return out, nil
}

// regID maps a concrete register to its simulator dependency-tracking ID.
func regID(class isa.RegClass, reg int) int {
	switch class {
	case isa.ClassVec:
		return vecBase + reg
	case isa.ClassFPR:
		return fprBase + reg
	default:
		return gprBase + reg
	}
}

// ToMachineInst lowers a concrete instruction to the simulator's
// representation: register reads/writes including memory pseudo-
// registers (loads read, stores write the pseudo-register of their
// offset) and the base pointer.
func ToMachineInst(in Inst) machine.Inst {
	mi := machine.Inst{Spec: in.Form.ID}
	for i, op := range in.Operands {
		spec := in.Form.Operands[i]
		switch op.Kind {
		case isa.KindReg:
			id := regID(op.Class, op.Reg)
			if spec.Read {
				mi.Reads = append(mi.Reads, id)
			}
			if spec.Write {
				mi.Writes = append(mi.Writes, id)
			}
		case isa.KindMem:
			mi.Reads = append(mi.Reads, basePtrID)
			pseudo := memBase + op.Offset
			if spec.Read {
				mi.Reads = append(mi.Reads, pseudo)
			}
			if spec.Write {
				mi.Writes = append(mi.Writes, pseudo)
			}
		}
	}
	return mi
}

// ToMachineInsts lowers a sequence.
func ToMachineInsts(seq []Inst) []machine.Inst {
	out := make([]machine.Inst, len(seq))
	for i, in := range seq {
		out[i] = ToMachineInst(in)
	}
	return out
}

// loopArena is one worker's storage for building loop bodies without
// allocating once its buffers have grown to the largest body built. A
// Harness keeps its arenas in a sync.Pool; a body built in an arena is
// valid until the arena's next build.
type loopArena struct {
	terms portmap.Experiment // the normalized experiment
	alloc Allocator
	ops   []Operand // the current instruction's concrete operands
	body  []machine.Inst
	regs  []int // every Reads and Writes list of body, back to back
}

// build is BuildLoop into the arena's storage: the same body, instance
// count and errors, bit for bit, from the same allocation policy
// (Allocator.assign). Every error is found before the body is started.
func (a *loopArena) build(h *Harness, e portmap.Experiment) ([]machine.Inst, int, error) {
	if err := checkCounts(e); err != nil {
		return nil, 0, err
	}
	a.terms = e.AppendNormalized(a.terms[:0])
	if len(a.terms) == 0 {
		return nil, 0, errEmptyExperiment
	}
	total := 0
	for _, t := range a.terms {
		if t.Inst < 0 || t.Inst >= h.proc.ISA.NumForms() {
			return nil, 0, fmt.Errorf("measure: instruction %d out of range", t.Inst)
		}
		total += t.Count
	}
	instances := (h.opts.UnrollLength + total - 1) / total
	if err := a.alloc.reset(h.opts.Pools); err != nil {
		return nil, 0, err
	}
	for _, t := range a.terms {
		if err := a.alloc.check(h.proc.ISA.Form(t.Inst)); err != nil {
			return nil, 0, err
		}
	}
	a.body, a.regs = a.body[:0], a.regs[:0]
	for k := 0; k < instances; k++ {
		for _, t := range a.terms {
			f := h.proc.ISA.Form(t.Inst)
			for j := 0; j < t.Count; j++ {
				a.lower(f)
			}
		}
	}
	return a.body, instances, nil
}

// lower instantiates f as the body's next instruction and appends its
// simulator form, as ToMachineInst would lower it. In operand order, a
// register operand adds its register to the reads if it is read and to
// the writes if it is written; a memory operand adds the base pointer to
// the reads, and its offset's pseudo-register to the reads of a load and
// the writes of a store. An empty list stays nil.
func (a *loopArena) lower(f *isa.Form) {
	a.alloc.clock++
	a.ops = a.ops[:0]
	for i := range f.Operands {
		a.ops = append(a.ops, a.alloc.assign(f, i))
	}
	start := len(a.regs)
	for i, op := range a.ops {
		switch op.Kind {
		case isa.KindReg:
			if f.Operands[i].Read {
				a.regs = append(a.regs, regID(op.Class, op.Reg))
			}
		case isa.KindMem:
			a.regs = append(a.regs, basePtrID)
			if f.Operands[i].Read {
				a.regs = append(a.regs, memBase+op.Offset)
			}
		}
	}
	mid := len(a.regs)
	for i, op := range a.ops {
		if !f.Operands[i].Write {
			continue
		}
		switch op.Kind {
		case isa.KindReg:
			a.regs = append(a.regs, regID(op.Class, op.Reg))
		case isa.KindMem:
			a.regs = append(a.regs, memBase+op.Offset)
		}
	}
	in := machine.Inst{Spec: f.ID}
	if mid > start {
		in.Reads = a.regs[start:mid:mid]
	}
	if end := len(a.regs); end > mid {
		in.Writes = a.regs[mid:end:end]
	}
	a.body = append(a.body, in)
}
