package throughput

import (
	"fmt"
	"math"
	"math/bits"

	"pmevo/internal/portmap"
)

// Per-instruction subset-sum tables and the bound-and-prune kernel.
//
// The subset-sum (zeta) transform at the heart of the bottleneck
// algorithm is linear in the µop masses, and an experiment's masses are
// a non-negative integer combination of its instructions' unit masses:
//
//	S[Q] = Σ_i s_i · T_i[Q],  T_i[Q] = Σ{n | (i,n,u) ∈ N, u ⊆ Q}
//
// so a caller evaluating many experiments over one mapping can build
// each instruction's table once and reduce every experiment to the
// max-ratio search over scaled table sums — no per-experiment flatten,
// merge, or transform. This is the engine fitness service's fast path:
// §4.1 experiments touch 1–2 instructions each, while each instruction
// occurs in O(#instructions) experiments.
//
// BuildUnitTable adds each µop's count to every superset of its port
// set P directly, 2^(k−|P|) additions per µop. A fitness decomposition
// holds a few µops over 3–6 of its k ports, so this is roughly a tenth
// of the zeta transform's k·2^(k−1) additions. The choice is made per
// decomposition: when the enumeration would cost more than the
// transform (many narrow µops, such as every non-empty port set),
// BuildUnitTable scatters the counts and runs zetaTransform instead.
// Both orders give the same table, because every entry is an integer
// sum below 2^53 and thus exact under any association.
//
// The search is a branch-and-bound over cardinality classes instead of
// a scan of all 2^k subsets. Every S[Q] with |Q| = c is at most
//
//	B[c] = Σ_i s_i · M_i[c],  M_i[c] = max{T_i[Q] : |Q| = c}
//
// and BuildUnitTable records M_i beside T_i. The kernel seeds the best
// ratio with that of the used-port union U (S[U] is the total mass),
// then visits the classes in decreasing order of their bound B[c]/c,
// scanning each through a popcount-grouped subset index, and stops at
// the first class whose bound does not beat the best ratio found so
// far. Classes with c ≥ |U| never need a visit: their ratios are at
// most S[U]/c. A single instruction attains its bound in every class,
// so single-instruction experiments cost O(k) without any scan.
//
// Before it divides anything, the kernel tests the seed exactly: if
// B[c]·|U| ≤ S[U]·c for every class c < |U|, no class can beat the
// seed and the result is S[U]/|U|. Most multi-part calls of an
// inference run end here, at n−1 multiplications and compares.
//
// BottleneckPair is the same kernel written for exactly two parts, the
// shape of nearly every §4.1 experiment: the seed test reads the two
// tables' maxima directly, with no part slice or loop over parts, and a
// class visit scans the two tables with a branch-free max over the sums'
// bit patterns. It returns the same float as BottleneckTables because it
// forms the same products and sums them in the same order: the generic
// kernel's running sums start at 0, and 0 + x is exact. A part with zero
// scale, which BottleneckTables leaves out, adds exact zeros to every
// sum, and a scan of a class that BottleneckTables would take at its
// single live part's bound finds that bound, since the maximum of scaled
// integer sums is the scaled maximum.
//
// Bit-exactness: experiment counts and µop counts are non-negative
// integers, so every table entry, scaled sum, and bound is exact
// integer arithmetic in float64 under any association while it stays
// below 2^53. The seed test's products B[c]·|U| and S[U]·c are at most
// S[U]·k (B[c] ≤ S[U]), so they are exact while S[U]·k < 2^53, and the
// test then decides B[c]/c ≤ S[U]/|U| exactly. Correctly rounded
// division is monotone, so an exact B[c]/c ≤ S[U]/|U| gives
// fl(B[c]/c) ≤ fl(S[U]/|U|): a class the test rules out is one the
// division-based loop would not visit either, and S[Q] ≤ B[c] gives
// fl(S[Q]/c) ≤ fl(B[c]/c), so a pruned class can never hold a strictly
// larger ratio, and the maximum found is the same float a full scan
// finds. Subsets reaching outside U are dominated duplicates (S[Q] =
// S[Q∩U] with |Q| larger), so scanning whole classes of the k-port
// universe changes nothing either. The equivalence with ThroughputOf,
// BottleneckNaive and the LP is property-tested and fuzzed. Callers
// with non-integral masses or scales must use the per-experiment entry
// points instead.

// MaxUnitTablePorts bounds the port count of unit tables: a table holds
// 2^k entries per instruction, and the kernel's subset index is built
// for every k up to this limit (4095 entries in all). The paper's
// machines have at most 10 ports.
const MaxUnitTablePorts = 11

// UnitTable is one instruction's subset-sum table over ports 0..k-1
// together with the per-cardinality maxima the kernel bounds with.
type UnitTable struct {
	// Sums[Q] is the instruction's µop count on port subset Q: the sum
	// of the counts of its µops whose port sets lie within Q. It has
	// 1<<k entries.
	Sums []float64
	// Max[c] is the largest Sums[Q] over the subsets with |Q| = c.
	Max [MaxUnitTablePorts + 1]float64
	// Used is the union of the port sets of the instruction's µops.
	Used portmap.PortSet
	// Inf marks a µop on an empty port set: the instruction can never
	// execute, so any experiment containing it has throughput +Inf.
	Inf bool
}

// TablePart is one instruction's contribution to an experiment in
// subset-sum-table form: the instruction's unit table and the
// experiment's multiplicity for it.
type TablePart struct {
	Unit  *UnitTable
	Scale float64
}

// BuildUnitTable fills t with the subset-sum table of the
// decomposition's unit masses over ports 0..k-1 and its per-cardinality
// maxima, reusing t.Sums' storage when it is large enough. Every µop's
// port set must lie within 0..k-1, and counts are non-negative.
func BuildUnitTable(t *UnitTable, uops []portmap.UopCount, k int) {
	if k > MaxUnitTablePorts {
		panic(fmt.Sprintf("throughput: %d ports exceed the %d-port unit table limit", k, MaxUnitTablePorts))
	}
	// Superset enumeration costs 2^(k−|P|) additions per µop, the zeta
	// transform k·2^(k−1) in all.
	zeta, adds := k*(1<<uint(k))/2, 0
	for _, uc := range uops {
		if uc.Count != 0 && !uc.Ports.IsEmpty() {
			if adds += 1 << uint(k-uc.Ports.Count()); adds > zeta {
				break
			}
		}
	}
	buildUnitTable(t, uops, k, adds <= zeta)
}

// buildUnitTable is BuildUnitTable with the summation order chosen by
// the caller: superset enumeration per µop, or a scatter followed by the
// zeta transform. Both give the same table.
func buildUnitTable(t *UnitTable, uops []portmap.UopCount, k int, enumerate bool) {
	size := 1 << uint(k)
	if cap(t.Sums) < size {
		t.Sums = make([]float64, size)
	}
	sums := t.Sums[:size]
	clear(sums)
	t.Sums, t.Used, t.Inf = sums, 0, false
	for _, uc := range uops {
		if uc.Count == 0 {
			continue
		}
		if uc.Ports.IsEmpty() {
			t.Inf = true
			continue
		}
		t.Used |= uc.Ports
		n, p := float64(uc.Count), uint(uc.Ports)
		if !enumerate {
			sums[p] += n
			continue
		}
		for q := p; q < uint(len(sums)); q = (q + 1) | p {
			sums[q] += n
		}
	}
	if !enumerate {
		zetaTransform(sums, k)
	}
	// The entries are non-negative, and for non-negative floats the
	// order of their bit patterns is the float order: the uint64 compare
	// compiles to a conditional move instead of a mispredicted branch.
	t.Max = [MaxUnitTablePorts + 1]float64{}
	idx := &subsetIndex[k]
	for c := 0; c <= k; c++ {
		var m uint64
		for _, q := range idx.class(c) {
			m = max(m, math.Float64bits(sums[q]))
		}
		t.Max[c] = math.Float64frombits(m)
	}
}

// BottleneckTables computes the throughput of the experiment described
// by parts over ports 0..k-1. Tables must have been built with
// BuildUnitTable at the same k, and scales must be non-negative
// integers. The result is bit-identical to ThroughputOf on the
// equivalent mapping/experiment pair.
func (ev *Evaluator) BottleneckTables(parts []TablePart, k int) float64 {
	live := ev.live[:0]
	var used portmap.PortSet
	for _, p := range parts {
		if p.Scale == 0 {
			continue
		}
		if p.Unit.Inf {
			return math.Inf(1)
		}
		used |= p.Unit.Used
		live = append(live, p)
	}
	ev.live = live
	n := used.Count()
	if n == 0 {
		return 0
	}

	// bound[c] bounds the sums of class c; classes c ≥ n are bounded by
	// the seed, the ratio of the used union itself (its sum is the total
	// mass, Max[k]). A class can beat the seed only if bound[c]·n >
	// total·c, an exact test; when no class passes, the common case, the
	// seed is the result and nothing is divided.
	total := 0.0
	for _, p := range live {
		total += p.Scale * p.Unit.Max[k]
	}
	var bound [MaxUnitTablePorts + 1]float64
	beats := false
	for c := 1; c < n; c++ {
		b := 0.0
		for _, p := range live {
			b += p.Scale * p.Unit.Max[c]
		}
		bound[c] = b
		if b*float64(n) > total*float64(c) {
			beats = true
		}
	}
	best := total / float64(n)
	if !beats {
		return best
	}
	for c := 1; c < n; c++ {
		bound[c] /= float64(c)
	}

	// Visit the class with the largest bound above best until none is
	// left; a visited class's bound is cleared.
	idx := &subsetIndex[k]
	for {
		c, top := 0, best
		for j := 1; j < n; j++ {
			if bound[j] > top {
				c, top = j, bound[j]
			}
		}
		if c == 0 {
			return best
		}
		bound[c] = 0
		// One live part attains its bound; more need a scan.
		if len(live) > 1 {
			top = classMax(live, idx.class(c)) / float64(c)
		}
		if top > best {
			best = top
		}
	}
}

// BottleneckPair is BottleneckTables for the two parts (a, sa) and
// (b, sb), written without a part slice or a loop over parts: the same
// seed test over both tables' maxima, then class visits that scan the
// two tables with a branch-free max. It returns the same float as
// BottleneckTables on those parts, and so as ThroughputOf, under the
// same preconditions; a zero scale leaves its part out, as there.
func (ev *Evaluator) BottleneckPair(a *UnitTable, sa float64, b *UnitTable, sb float64, k int) float64 {
	var used portmap.PortSet
	if sa != 0 {
		if a.Inf {
			return math.Inf(1)
		}
		used = a.Used
	}
	if sb != 0 {
		if b.Inf {
			return math.Inf(1)
		}
		used |= b.Used
	}
	n := used.Count()
	if n == 0 {
		return 0
	}
	total := sa*a.Max[k] + sb*b.Max[k]
	for c := 1; c < n; c++ {
		if (sa*a.Max[c]+sb*b.Max[c])*float64(n) > total*float64(c) {
			return pairSearch(a, sa, b, sb, k, n, total/float64(n))
		}
	}
	return total / float64(n)
}

// pairSearch is BottleneckPair's class search over the n−1 classes
// below the used union, starting from the seed ratio best.
func pairSearch(a *UnitTable, sa float64, b *UnitTable, sb float64, k, n int, best float64) float64 {
	var bound [MaxUnitTablePorts + 1]float64
	for c := 1; c < n; c++ {
		bound[c] = (sa*a.Max[c] + sb*b.Max[c]) / float64(c)
	}
	idx := &subsetIndex[k]
	as, bs := a.Sums, b.Sums
	for {
		c, top := 0, best
		for j := 1; j < n; j++ {
			if bound[j] > top {
				c, top = j, bound[j]
			}
		}
		if c == 0 {
			return best
		}
		bound[c] = 0
		// The sums are non-negative, so their bit patterns order as
		// they do (see buildUnitTable).
		var m uint64
		for _, q := range idx.class(c) {
			m = max(m, math.Float64bits(sa*as[q]+sb*bs[q]))
		}
		if top = math.Float64frombits(m) / float64(c); top > best {
			best = top
		}
	}
}

// classMax returns the largest scaled table sum Σ s·Sums[q] over the
// subsets q of one cardinality class; live holds at least two parts.
func classMax(live []TablePart, class []uint16) float64 {
	a, sa := live[0].Unit.Sums, live[0].Scale
	b, sb := live[1].Unit.Sums, live[1].Scale
	rest := live[2:]
	m := 0.0
	for _, q := range class {
		v := sa*a[q] + sb*b[q]
		for _, p := range rest {
			v += p.Scale * p.Unit.Sums[q]
		}
		if v > m {
			m = v
		}
	}
	return m
}

// classIndex lists the subsets of ports 0..k-1 grouped by cardinality:
// class c is subsets[start[c]:start[c+1]], in increasing order.
type classIndex struct {
	subsets []uint16
	start   [MaxUnitTablePorts + 2]int
}

func (x *classIndex) class(c int) []uint16 { return x.subsets[x.start[c]:x.start[c+1]] }

// subsetIndex[k] is the class index over k ports, built once at package
// initialization and read-only afterwards.
var subsetIndex = buildSubsetIndexes()

func buildSubsetIndexes() (out [MaxUnitTablePorts + 1]classIndex) {
	for k := range out {
		x := &out[k]
		size := 1 << uint(k)
		var count [MaxUnitTablePorts + 1]int
		for q := 0; q < size; q++ {
			count[bits.OnesCount(uint(q))]++
		}
		for c := 0; c <= k; c++ {
			x.start[c+1] = x.start[c] + count[c]
		}
		next := x.start
		x.subsets = make([]uint16, size)
		for q := 0; q < size; q++ {
			c := bits.OnesCount(uint(q))
			x.subsets[next[c]] = uint16(q)
			next[c]++
		}
	}
	return out
}
