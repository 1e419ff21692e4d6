package measure

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"pmevo/internal/isa"
)

// This file emits the benchmark program the paper's harness generates:
// the instantiated loop as inline assembly in a C program wrapped with
// gettimeofday calls (§4.2). On the real system this program is compiled
// and executed; in this reproduction it documents and tests the code
// generation scheme while the simulator performs the actual measurement.

// x86GPRNames are the general purpose registers the allocator may use
// (rsp, rbp are reserved; r15 is the memory base pointer), by width:
// the 64-, 32-, 16- and 8-bit name of each.
var x86GPRNames = func() [][4]string {
	out := [][4]string{
		{"rax", "eax", "ax", "al"}, {"rbx", "ebx", "bx", "bl"},
		{"rcx", "ecx", "cx", "cl"}, {"rdx", "edx", "dx", "dl"},
		{"rsi", "esi", "si", "sil"}, {"rdi", "edi", "di", "dil"},
	}
	for i := 8; i <= 14; i++ {
		r := fmt.Sprintf("r%d", i)
		out = append(out, [4]string{r, r + "d", r + "w", r + "b"})
	}
	return out
}()

// armGPRNames are the usable A64 general purpose registers (x28 is the
// base pointer, x29/x30 frame/link).
var armGPRNames = func() []string {
	var out []string
	for i := 0; i < 28; i++ {
		out = append(out, fmt.Sprintf("x%d", i))
	}
	return out
}()

// gprName names GPR r at an operand width; A64 names are always the
// 64-bit ones.
func gprName(isaName string, r, width int) string {
	if isaName == "ARMv8-A" {
		return armGPRNames[r%len(armGPRNames)]
	}
	names := x86GPRNames[r%len(x86GPRNames)]
	switch width {
	case 32:
		return names[1]
	case 16:
		return names[2]
	case 8:
		return names[3]
	}
	return names[0]
}

func vecName(isaName string, r int, width int) string {
	if isaName == "ARMv8-A" {
		return fmt.Sprintf("v%d", r)
	}
	if width >= 256 {
		return fmt.Sprintf("ymm%d", r)
	}
	return fmt.Sprintf("xmm%d", r)
}

func fprName(r int, width int) string {
	if width >= 64 {
		return fmt.Sprintf("d%d", r)
	}
	return fmt.Sprintf("s%d", r)
}

func basePtrName(isaName string) string {
	if isaName == "ARMv8-A" {
		return "x28"
	}
	return "r15"
}

// renderOperand renders one concrete operand in assembly syntax.
func renderOperand(isaName string, spec isa.Operand, op Operand) string {
	switch op.Kind {
	case isa.KindImm:
		if isaName == "ARMv8-A" {
			return fmt.Sprintf("#%d", op.Imm)
		}
		return fmt.Sprintf("$%d", op.Imm)
	case isa.KindMem:
		off := op.Offset * 64 // cache-line-sized stride between offsets
		if isaName == "ARMv8-A" {
			return fmt.Sprintf("[%s, #%d]", basePtrName(isaName), off)
		}
		return fmt.Sprintf("%d(%%%s)", off, basePtrName(isaName))
	default:
		switch op.Class {
		case isa.ClassVec:
			n := vecName(isaName, op.Reg, spec.Width)
			if isaName == "ARMv8-A" {
				return n + ".16b"
			}
			return "%" + n
		case isa.ClassFPR:
			return fprName(op.Reg, spec.Width)
		default:
			n := gprName(isaName, op.Reg, spec.Width)
			if isaName == "ARMv8-A" {
				return n
			}
			return "%" + n
		}
	}
}

// RenderAsm renders one instruction instance in assembly syntax: A64
// lists the destination first, as the forms do; x86 uses AT&T syntax,
// which lists the sources first and the destination last.
func RenderAsm(isaName string, in Inst) string {
	if len(in.Operands) == 0 {
		return in.Form.Mnemonic
	}
	parts := make([]string, len(in.Operands))
	for i, op := range in.Operands {
		parts[i] = renderOperand(isaName, in.Form.Operands[i], op)
	}
	if isaName != "ARMv8-A" {
		slices.Reverse(parts)
	}
	return in.Form.Mnemonic + " " + strings.Join(parts, ", ")
}

// clobbers renders an asm statement's clobber list: the flags, memory
// and every register the loop body names — a GPR by its 64-bit name, a
// vector or FP register by the name that covers its aliases (ymm over
// xmm on x86, v over q, d and s on A64) — in name order. The base
// pointer is an input, never written, so it is not listed.
func clobbers(isaName string, body []Inst) string {
	regs := map[string]bool{}
	for _, in := range body {
		for _, op := range in.Operands {
			if op.Kind != isa.KindReg {
				continue
			}
			switch op.Class {
			case isa.ClassGPR:
				regs[gprName(isaName, op.Reg, 64)] = true
			case isa.ClassVec, isa.ClassFPR:
				regs[vecName(isaName, op.Reg, 256)] = true
			}
		}
	}
	out := `"cc", "memory"`
	for _, r := range slices.Sorted(maps.Keys(regs)) {
		out += `, "` + r + `"`
	}
	return out
}

// EmitC produces the complete benchmark C program for an instantiated
// loop body: setup of the memory base pointer, the timed loop with the
// body as inline assembly, and the throughput computation from the
// §4.2 formula t*(e) = time × frequency / #instances. The asm statement
// takes the base pointer as an operand, so its template escapes every
// % of the body. It clobbers the flags, memory and every register the
// body names, so the compiler keeps the loop's own state elsewhere. The
// x86 program compiles with gcc; the A64 program is unverified.
func EmitC(isaName string, body []Inst, loopBound, instances int, freqGHz float64) string {
	var b strings.Builder
	b.WriteString("/* generated by pmevo-measure; do not edit */\n")
	b.WriteString("#include <stdio.h>\n#include <stdlib.h>\n#include <sys/time.h>\n\n")
	b.WriteString("int main(void) {\n")
	fmt.Fprintf(&b, "\tlong loop_bound = %d;\n", loopBound)
	b.WriteString("\tvoid *buf = malloc(1 << 16);\n")
	b.WriteString("\tstruct timeval start, end;\n")
	fmt.Fprintf(&b, "\tregister void *base __asm__(\"%s\") = buf;\n", basePtrName(isaName))
	b.WriteString("\tgettimeofday(&start, NULL);\n")
	b.WriteString("\tfor (long i = 0; i < loop_bound; i++) {\n")
	b.WriteString("\t\t__asm__ volatile(\n")
	for _, in := range body {
		fmt.Fprintf(&b, "\t\t\t\"%s\\n\\t\"\n", strings.ReplaceAll(RenderAsm(isaName, in), "%", "%%"))
	}
	fmt.Fprintf(&b, "\t\t: : \"r\"(base) : %s);\n", clobbers(isaName, body))
	b.WriteString("\t}\n")
	b.WriteString("\tgettimeofday(&end, NULL);\n")
	b.WriteString("\tdouble secs = (end.tv_sec - start.tv_sec) + (end.tv_usec - start.tv_usec) * 1e-6;\n")
	fmt.Fprintf(&b, "\tdouble cycles = secs * %g * 1e9;\n", freqGHz)
	fmt.Fprintf(&b, "\tprintf(\"%%.6f\\n\", cycles / ((double)loop_bound * %d));\n", instances)
	b.WriteString("\tfree(buf);\n")
	b.WriteString("\treturn 0;\n}\n")
	return b.String()
}
