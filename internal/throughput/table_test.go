package throughput

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pmevo/internal/exp"
	"pmevo/internal/portmap"
)

// unitTables builds every instruction's unit table under m at k ports,
// reusing dst's storage as the engine's per-worker cache does.
func unitTables(dst []UnitTable, m *portmap.Mapping, k int) []UnitTable {
	for len(dst) < m.NumInsts() {
		dst = append(dst, UnitTable{})
	}
	for i, d := range m.Decomp {
		BuildUnitTable(&dst[i], d, k)
	}
	return dst
}

// checkTables asserts that BottleneckTables over e's parts is bit for
// bit ThroughputOf and BottleneckNaive on the same experiment, and, when
// e has exactly two parts, that BottleneckPair on them is too. It
// returns that throughput.
func checkTables(t *testing.T, ev *Evaluator, tables []UnitTable, m *portmap.Mapping, e portmap.Experiment, k int) float64 {
	t.Helper()
	parts := make([]TablePart, len(e))
	for i, term := range e {
		parts[i] = TablePart{Unit: &tables[term.Inst], Scale: float64(term.Count)}
	}
	got := ev.BottleneckTables(parts, k)
	var ref Evaluator
	want := ref.ThroughputOf(m, e)
	naive := BottleneckNaive(m.Flatten(e))
	if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(naive) != math.Float64bits(want) {
		t.Fatalf("k=%d exp %v: BottleneckTables %v, ThroughputOf %v, BottleneckNaive %v\nmapping:\n%s",
			k, e, got, want, naive, m)
	}
	if len(parts) == 2 {
		a, b := parts[0], parts[1]
		if pair := ev.BottleneckPair(a.Unit, a.Scale, b.Unit, b.Scale, k); math.Float64bits(pair) != math.Float64bits(got) {
			t.Fatalf("k=%d exp %v: BottleneckPair %v, BottleneckTables %v\nmapping:\n%s", k, e, pair, got, m)
		}
	}
	return got
}

// bloated samples a mapping whose instructions all carry k distinct µops
// (MaxUops = |P|, the paper's initialization bound, at its maximum) with
// counts scaled by the throughput hints, the shape evolved candidates
// take before local search trims them.
func bloated(rng *rand.Rand, numInsts, k int, hint []float64) *portmap.Mapping {
	m := portmap.Random(rng, portmap.RandomOptions{NumInsts: numInsts, NumPorts: k, MaxUops: k, ThroughputHint: hint})
	for i := range m.Decomp {
		for len(m.Decomp[i]) < k {
			u := portmap.RandomPortSet(rng, k)
			m.AddUop(i, u, 1+rng.Intn(1+int(hint[i]*float64(u.Count()))))
		}
	}
	return m
}

// onPorts relabels m's ports 0..n-1 onto the ports of mask (n = |mask|),
// so every µop lies within mask: a partial used-port union of a k-port
// table universe.
func onPorts(m *portmap.Mapping, mask portmap.PortSet, k int) *portmap.Mapping {
	ports := mask.Ports()
	out := portmap.NewMapping(m.NumInsts(), k)
	for i, d := range m.Decomp {
		uops := make([]portmap.UopCount, len(d))
		for j, uc := range d {
			var q portmap.PortSet
			for _, p := range uc.Ports.Ports() {
				q = q.With(ports[p])
			}
			uops[j] = portmap.UopCount{Ports: q, Count: uc.Count}
		}
		out.SetDecomp(i, uops)
	}
	return out
}

// throughputHints draws individual-throughput hints in [0.25, 4).
func throughputHints(rng *rand.Rand, n int) []float64 {
	hint := make([]float64, n)
	for i := range hint {
		hint[i] = 0.25 + 3.75*rng.Float64()
	}
	return hint
}

// TestBottleneckTablesDifferential pins the bound-and-prune kernel bit
// for bit against ThroughputOf and BottleneckNaive at the port counts of
// the paper's machines and beyond (k = 7, 9, 10, 11), on the inputs the
// fitness service feeds it and on the edges of its contract; every
// two-part case also pins BottleneckPair.
func TestBottleneckTablesDifferential(t *testing.T) {
	const numInsts = 10
	for _, k := range []int{7, 9, 10, 11} {
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) { differentialAt(t, k, numInsts) })
	}
}

// differentialAt runs the differential cases over one k-port universe.
func differentialAt(t *testing.T, k, numInsts int) {
	rng := rand.New(rand.NewSource(int64(100 + k)))
	var ev Evaluator
	var tables []UnitTable

	// §4.1 pair and weighted-pair experiments with the integer scales
	// exp.PairExperiments derives from a hidden mapping's individual
	// throughputs, evaluated under bloated and plain candidates, plus
	// the singletons (one live part).
	t.Run("pairs", func(t *testing.T) {
		hint := throughputHints(rng, numInsts)
		hidden := portmap.Random(rng, portmap.RandomOptions{NumInsts: numInsts, NumPorts: k, MaxUops: k, ThroughputHint: hint})
		individual := make([]float64, numInsts)
		for i := range individual {
			individual[i] = ev.ThroughputOf(hidden, portmap.Experiment{{Inst: i, Count: 1}})
		}
		pairs := exp.PairExperiments(individual)
		weighted := 0
		for _, e := range pairs {
			if e.TotalCount() > 2 {
				weighted++
			}
		}
		if weighted == 0 {
			t.Fatal("no weighted pairs: the hints exercise no integer scale above 1")
		}
		for _, m := range []*portmap.Mapping{hidden, bloated(rng, numInsts, k, hint), bloated(rng, numInsts, k, throughputHints(rng, numInsts))} {
			tables = unitTables(tables, m, k)
			for i := 0; i < numInsts; i++ {
				checkTables(t, &ev, tables, m, portmap.Experiment{{Inst: i, Count: 1 + rng.Intn(4)}}, k)
			}
			for _, e := range pairs {
				checkTables(t, &ev, tables, m, e, k)
			}
		}
	})

	// Every instruction's µops lie within a random proper subset of the
	// k ports, so the kernel scans classes that reach outside the used
	// union; experiments have 1 to 5 live parts with weights 1-6.
	t.Run("partial-unions", func(t *testing.T) {
		for trial := 0; trial < 8; trial++ {
			var mask portmap.PortSet
			for mask.Count() < 1 || mask.Count() == k {
				mask = portmap.RandomPortSet(rng, k)
			}
			n := mask.Count()
			hint := throughputHints(rng, numInsts)
			m := onPorts(bloated(rng, numInsts, n, hint), mask, k)
			tables = unitTables(tables, m, k)
			for j := 0; j < 40; j++ {
				e := portmap.RandomExperiment(rng, numInsts, 1+rng.Intn(5))
				for i := range e {
					e[i].Count = 1 + rng.Intn(6)
				}
				checkTables(t, &ev, tables, m, e, k)
			}
		}
	})

	// 1, 2 and 3+ live parts over the full universe, including parts
	// with zero scale, which must not count as live.
	t.Run("live-parts", func(t *testing.T) {
		m := bloated(rng, numInsts, k, throughputHints(rng, numInsts))
		tables = unitTables(tables, m, k)
		for live := 1; live <= 5; live++ {
			for j := 0; j < 30; j++ {
				perm := rng.Perm(numInsts)
				var e portmap.Experiment
				for _, inst := range perm[:live] {
					e = append(e, portmap.InstCount{Inst: inst, Count: 1 + rng.Intn(6)})
				}
				for _, inst := range perm[live : live+rng.Intn(3)] {
					e = append(e, portmap.InstCount{Inst: inst, Count: 0})
				}
				rng.Shuffle(len(e), func(a, b int) { e[a], e[b] = e[b], e[a] })
				checkTables(t, &ev, tables, m, e, k)
			}
		}
	})

	// An instruction with a µop on an empty port set makes every
	// experiment that contains it +Inf, unless its scale is zero; an
	// experiment whose parts all have zero scale has throughput 0.
	t.Run("inf-and-zero-scale", func(t *testing.T) {
		m := bloated(rng, numInsts, k, throughputHints(rng, numInsts))
		inf := 3
		m.Decomp[inf] = append(m.Decomp[inf], portmap.UopCount{Ports: 0, Count: 1})
		m.InvalidateFingerprints()
		tables = unitTables(tables, m, k)
		if !tables[inf].Inf {
			t.Fatal("unit table of an instruction with an empty-port µop is not marked Inf")
		}
		for _, e := range []portmap.Experiment{
			{{Inst: inf, Count: 1}},
			{{Inst: 0, Count: 2}, {Inst: inf, Count: 1}},
			{{Inst: 0, Count: 1}, {Inst: 1, Count: 3}, {Inst: inf, Count: 2}},
			{{Inst: 0, Count: 1}, {Inst: inf, Count: 0}},
			{{Inst: 0, Count: 2}, {Inst: 1, Count: 0}, {Inst: inf, Count: 0}},
			{{Inst: inf, Count: 0}},
			{{Inst: 0, Count: 0}, {Inst: 1, Count: 0}},
			{},
		} {
			checkTables(t, &ev, tables, m, e, k)
		}
	})
}

// TestUnitTableMaxima checks the per-cardinality maxima BuildUnitTable
// records against a direct scan, including after the table's storage is
// reused for a different decomposition and a smaller port count.
func TestUnitTableMaxima(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var u UnitTable
	for _, k := range []int{11, 4, 9, 1, 7} {
		m := bloated(rng, 1, k, []float64{2})
		BuildUnitTable(&u, m.Decomp[0], k)
		if len(u.Sums) != 1<<uint(k) {
			t.Fatalf("k=%d: table has %d entries", k, len(u.Sums))
		}
		var want [MaxUnitTablePorts + 1]float64
		for q, v := range u.Sums {
			c := portmap.PortSet(q).Count()
			want[c] = math.Max(want[c], v)
		}
		if u.Max != want {
			t.Fatalf("k=%d: maxima %v, want %v", k, u.Max, want)
		}
		if total := float64(m.UopCountOf(0)); u.Max[k] != total {
			t.Fatalf("k=%d: full-set maximum %v, want the µop count %v", k, u.Max[k], total)
		}
	}
}

// TestUnitTableBuildPaths pins the two summation orders of
// BuildUnitTable against each other: superset enumeration per µop and
// the scatter-plus-zeta fallback must give bit-identical sums, maxima,
// used-port unions and Inf flags. The inputs cover sparse and bloated
// decompositions, every non-empty port set (the dense input for which
// BuildUnitTable picks the fallback), repeated port sets, zero counts
// and a µop on an empty port set, with both tables' storage reused
// across port counts.
func TestUnitTableBuildPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var enum, zeta, auto UnitTable
	check := func(name string, uops []portmap.UopCount, k int) {
		t.Helper()
		buildUnitTable(&enum, uops, k, true)
		buildUnitTable(&zeta, uops, k, false)
		BuildUnitTable(&auto, uops, k)
		for _, u := range []*UnitTable{&enum, &auto} {
			if len(u.Sums) != len(zeta.Sums) || len(u.Sums) != 1<<uint(k) {
				t.Fatalf("k=%d %s: tables of %d and %d entries", k, name, len(u.Sums), len(zeta.Sums))
			}
			for q := range u.Sums {
				if math.Float64bits(u.Sums[q]) != math.Float64bits(zeta.Sums[q]) {
					t.Fatalf("k=%d %s: Sums[%#b] = %v, zeta fallback %v\nµops %v", k, name, q, u.Sums[q], zeta.Sums[q], uops)
				}
			}
			if u.Max != zeta.Max || u.Used != zeta.Used || u.Inf != zeta.Inf {
				t.Fatalf("k=%d %s: (Max, Used, Inf) = (%v, %v, %v), zeta fallback (%v, %v, %v)",
					k, name, u.Max, u.Used, u.Inf, zeta.Max, zeta.Used, zeta.Inf)
			}
		}
	}
	for _, k := range []int{11, 4, 9, 1, 7} {
		full := portmap.FullPortSet(k)
		sparse := make([]portmap.UopCount, 1+rng.Intn(3))
		for i := range sparse {
			sparse[i] = portmap.UopCount{Ports: portmap.RandomPortSet(rng, k), Count: 1 + rng.Intn(4)}
		}
		check("sparse", sparse, k)
		check("bloated", bloated(rng, 1, k, []float64{2}).Decomp[0], k)

		var dense []portmap.UopCount
		for q := portmap.PortSet(1); q <= full; q++ {
			dense = append(dense, portmap.UopCount{Ports: q, Count: 1 + int(q)%3})
		}
		check("every-port-set", dense, k)

		p, r := portmap.RandomPortSet(rng, k), portmap.RandomPortSet(rng, k)
		check("repeated-sets", []portmap.UopCount{{Ports: p, Count: 2}, {Ports: r, Count: 1}, {Ports: p, Count: 3}, {Ports: p, Count: 1}}, k)
		check("zero-counts", []portmap.UopCount{{Ports: p, Count: 0}, {Ports: r, Count: 2}, {Ports: full, Count: 0}}, k)
		check("empty-port-set", []portmap.UopCount{{Ports: r, Count: 1}, {Ports: 0, Count: 2}, {Ports: p, Count: 1}}, k)
		check("no-uops", nil, k)
	}
}

// TestBuildUnitTablePanicsAboveLimit pins the documented port limit.
func TestBuildUnitTablePanicsAboveLimit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic above MaxUnitTablePorts")
		}
	}()
	var u UnitTable
	BuildUnitTable(&u, nil, MaxUnitTablePorts+1)
}

// FuzzBottleneckTables differentially fuzzes the kernel against
// ThroughputOf and BottleneckNaive, bit for bit, and against the LP
// engine within 1e-9 relative error where the throughput is finite and
// positive; on every input of exactly two parts, BottleneckPair must
// return BottleneckTables' bits (see checkTables). The input decodes
// into a mapping over k = 1 + kSel%11 ports with one instruction per
// part: each part is a scale byte (mod 8, so
// zero scales occur), a µop-count byte (mod 2k+2, so k+1 single-port
// µops, enough to make BuildUnitTable fall back to the zeta transform,
// fit), and per µop two port-mask bytes (cut to k ports, so empty sets
// occur) and a count byte (mod 5, so zero counts occur).
func FuzzBottleneckTables(f *testing.F) {
	f.Add(uint8(9), []byte{1, 2, 0x0f, 0x00, 2, 0xf0, 0x03, 1, 3, 1, 0x21, 0x00, 4})
	f.Fuzz(func(t *testing.T, kSel uint8, data []byte) {
		k := 1 + int(kSel)%MaxUnitTablePorts
		var uops [][]portmap.UopCount
		var e portmap.Experiment
		for len(data) >= 2 && len(uops) < 6 {
			scale, n := int(data[0]%8), int(data[1])%(2*k+2)
			data = data[2:]
			var d []portmap.UopCount
			for ; n > 0 && len(data) >= 3; n-- {
				ports := portmap.PortSet(uint16(data[0])|uint16(data[1])<<8) & portmap.FullPortSet(k)
				d = append(d, portmap.UopCount{Ports: ports, Count: int(data[2] % 5)})
				data = data[3:]
			}
			e = append(e, portmap.InstCount{Inst: len(uops), Count: scale})
			uops = append(uops, d)
		}
		m := portmap.NewMapping(len(uops), k)
		copy(m.Decomp, uops)
		var ev Evaluator
		got := checkTables(t, &ev, unitTables(nil, m, k), m, e, k)
		if math.IsInf(got, 0) || got <= 0 {
			return
		}
		lp, err := OfExperimentLP(m, e)
		if err != nil {
			t.Fatalf("k=%d exp %v: LP failed (%v) where the kernel gives %v", k, e, err, got)
		}
		if math.Abs(lp-got) > 1e-9*got {
			t.Fatalf("k=%d exp %v: kernel %v, LP %v\nmapping:\n%s", k, e, got, lp, m)
		}
	})
}
