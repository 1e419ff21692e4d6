package throughput

import (
	"math"
	"math/rand"
	"testing"

	"pmevo/internal/portmap"
)

// paperExampleMapping is the three-level mapping of Figure 4 with ports
// P1..P3 at indices 0..2 and instructions mul=0, add=1, sub=2, store=3.
func paperExampleMapping() *portmap.Mapping {
	m := portmap.NewMapping(4, 3)
	u1 := portmap.MakePortSet(0)
	u2 := portmap.MakePortSet(0, 1)
	u3 := portmap.MakePortSet(2)
	m.SetDecomp(0, []portmap.UopCount{{Ports: u1, Count: 2}})
	m.SetDecomp(1, []portmap.UopCount{{Ports: u2, Count: 1}})
	m.SetDecomp(2, []portmap.UopCount{{Ports: u2, Count: 1}})
	m.SetDecomp(3, []portmap.UopCount{{Ports: u2, Count: 1}, {Ports: u3, Count: 1}})
	return m
}

// twoLevelPaperMapping is the two-level mapping of Figure 2: mul→{P1},
// add,sub→{P1,P2}, store→{P3}.
func twoLevelPaperMapping() *portmap.Mapping {
	return portmap.TwoLevelFromPorts(3, []portmap.PortSet{
		portmap.MakePortSet(0),
		portmap.MakePortSet(0, 1),
		portmap.MakePortSet(0, 1),
		portmap.MakePortSet(2),
	})
}

func TestPaperExample1(t *testing.T) {
	// Example 1: e = {add→2, mul→1, store→1} under the Figure 2 mapping
	// has throughput 1.5 (ports P1, P2 are the bottleneck).
	m := twoLevelPaperMapping()
	e := portmap.Experiment{{Inst: 1, Count: 2}, {Inst: 0, Count: 1}, {Inst: 3, Count: 1}}
	got := OfExperiment(m, e)
	if math.Abs(got-1.5) > 1e-9 {
		t.Errorf("throughput = %g, want 1.5", got)
	}
	gotLP, err := OfExperimentLP(m, e)
	if err != nil {
		t.Fatalf("LP: %v", err)
	}
	if math.Abs(gotLP-1.5) > 1e-6 {
		t.Errorf("LP throughput = %g, want 1.5", gotLP)
	}
}

func TestThreeLevelStoreConflict(t *testing.T) {
	// Under the Figure 4 three-level mapping, a store costs one p01 µop
	// and one p2 µop. Experiment {store→2}: masses p01=2, p2=2; the
	// bottleneck is {P2} with 2/1 = 2? No: p01 mass 2 over 2 ports = 1,
	// p2 mass 2 on 1 port = 2. Throughput 2.
	m := paperExampleMapping()
	got := OfExperiment(m, portmap.Experiment{{Inst: 3, Count: 2}})
	if math.Abs(got-2) > 1e-9 {
		t.Errorf("throughput = %g, want 2", got)
	}

	// {add→1, store→1}: masses p01 = 2, p2 = 1. Q={P1,P2}: 2/2=1;
	// Q={P3}: 1. Q={P1,P2,P3}: 3/3=1. Throughput 1.
	got = OfExperiment(m, portmap.Experiment{{Inst: 1, Count: 1}, {Inst: 3, Count: 1}})
	if math.Abs(got-1) > 1e-9 {
		t.Errorf("throughput = %g, want 1", got)
	}
}

func TestMulDoubleUop(t *testing.T) {
	// mul decomposes into two p0 µops: {mul→1} has throughput 2.
	m := paperExampleMapping()
	got := OfExperiment(m, portmap.Experiment{{Inst: 0, Count: 1}})
	if math.Abs(got-2) > 1e-9 {
		t.Errorf("throughput = %g, want 2", got)
	}
}

func TestEmptyExperiment(t *testing.T) {
	m := paperExampleMapping()
	if got := OfExperiment(m, nil); got != 0 {
		t.Errorf("empty experiment throughput = %g, want 0", got)
	}
	v, err := LP(nil, 3)
	if err != nil || v != 0 {
		t.Errorf("LP(empty) = %g, %v; want 0, nil", v, err)
	}
	if got := BottleneckNaive(nil); got != 0 {
		t.Errorf("naive empty = %g, want 0", got)
	}
	if got := BottleneckUnion(nil); got != 0 {
		t.Errorf("union empty = %g, want 0", got)
	}
}

func TestEmptyPortSetMassIsInf(t *testing.T) {
	terms := []portmap.MassTerm{{Ports: 0, Mass: 1}}
	if !math.IsInf(Bottleneck(terms), 1) {
		t.Error("Bottleneck of unexecutable µop should be +Inf")
	}
	if !math.IsInf(BottleneckNaive(terms), 1) {
		t.Error("BottleneckNaive of unexecutable µop should be +Inf")
	}
	if !math.IsInf(BottleneckUnion(terms), 1) {
		t.Error("BottleneckUnion of unexecutable µop should be +Inf")
	}
	v, err := LP(terms, 3)
	if err != nil || !math.IsInf(v, 1) {
		t.Errorf("LP of unexecutable µop = %g, %v; want +Inf", v, err)
	}
}

func TestZeroMassTermsIgnored(t *testing.T) {
	terms := []portmap.MassTerm{
		{Ports: portmap.MakePortSet(0), Mass: 0},
		{Ports: portmap.MakePortSet(1), Mass: 3},
	}
	if got := Bottleneck(terms); math.Abs(got-3) > 1e-9 {
		t.Errorf("throughput = %g, want 3", got)
	}
}

func TestSinglePortSaturation(t *testing.T) {
	// All mass on one port: throughput equals total mass.
	terms := []portmap.MassTerm{
		{Ports: portmap.MakePortSet(4), Mass: 2.5},
		{Ports: portmap.MakePortSet(4), Mass: 1.5},
	}
	for name, got := range map[string]float64{
		"sos":   Bottleneck(terms),
		"naive": BottleneckNaive(terms),
		"union": BottleneckUnion(terms),
	} {
		if math.Abs(got-4) > 1e-9 {
			t.Errorf("%s throughput = %g, want 4", name, got)
		}
	}
}

func TestDisjointPortsBalance(t *testing.T) {
	// Two µops on disjoint port pairs: each limits independently.
	terms := []portmap.MassTerm{
		{Ports: portmap.MakePortSet(0, 1), Mass: 6},
		{Ports: portmap.MakePortSet(2, 3), Mass: 2},
	}
	// {P0,P1}: 6/2 = 3; whole set: 8/4 = 2. Max is 3.
	if got := Bottleneck(terms); math.Abs(got-3) > 1e-9 {
		t.Errorf("throughput = %g, want 3", got)
	}
}

func TestPartialOverlapSpilling(t *testing.T) {
	// µop A on {P0}, µop B on {P0,P1}: optimal scheduler pushes B to P1.
	terms := []portmap.MassTerm{
		{Ports: portmap.MakePortSet(0), Mass: 1},
		{Ports: portmap.MakePortSet(0, 1), Mass: 1},
	}
	// Q={P0}: 1; Q={P0,P1}: 2/2=1. Throughput 1.
	if got := Bottleneck(terms); math.Abs(got-1) > 1e-9 {
		t.Errorf("throughput = %g, want 1", got)
	}
}

func TestFractionalMasses(t *testing.T) {
	terms := []portmap.MassTerm{
		{Ports: portmap.MakePortSet(0), Mass: 0.5},
		{Ports: portmap.MakePortSet(0, 1), Mass: 1.25},
	}
	// Q={P0}: 0.5; Q={P0,P1}: 1.75/2 = 0.875. Throughput 0.875.
	if got := Bottleneck(terms); math.Abs(got-0.875) > 1e-9 {
		t.Errorf("throughput = %g, want 0.875", got)
	}
}

func randomTerms(rng *rand.Rand, numPorts, n int) []portmap.MassTerm {
	terms := make([]portmap.MassTerm, n)
	for i := range terms {
		terms[i] = portmap.MassTerm{
			Ports: portmap.RandomPortSet(rng, numPorts),
			Mass:  rng.Float64() * 10,
		}
	}
	return terms
}

// TestEnginesAgreeRandom is the correctness cross-validation of the
// bottleneck simulation algorithm (paper Appendix A): for random µop
// masses, all five engines must produce the same throughput.
func TestEnginesAgreeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	var ev Evaluator
	for trial := 0; trial < 400; trial++ {
		numPorts := 1 + rng.Intn(8)
		n := 1 + rng.Intn(8)
		terms := randomTerms(rng, numPorts, n)

		dispatched := Bottleneck(terms)
		table := ev.BottleneckTable(terms)
		naive := BottleneckNaive(terms)
		union := BottleneckUnion(terms)
		lpVal, err := LP(terms, numPorts)
		if err != nil {
			t.Fatalf("trial %d: LP error: %v", trial, err)
		}
		if math.Abs(dispatched-naive) > 1e-9 {
			t.Fatalf("trial %d: dispatched %g != naive %g\nterms: %v", trial, dispatched, naive, terms)
		}
		if math.Abs(dispatched-table) > 1e-9 {
			t.Fatalf("trial %d: dispatched %g != table %g\nterms: %v", trial, dispatched, table, terms)
		}
		if math.Abs(dispatched-union) > 1e-9 {
			t.Fatalf("trial %d: dispatched %g != union %g\nterms: %v", trial, dispatched, union, terms)
		}
		if math.Abs(dispatched-lpVal) > 1e-6 {
			t.Fatalf("trial %d: dispatched %g != LP %g\nterms: %v", trial, dispatched, lpVal, terms)
		}
	}
}

// TestEnginesAgreeOnMappings cross-validates on full three-level mappings
// and multi-instruction experiments.
func TestEnginesAgreeOnMappings(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		numPorts := 2 + rng.Intn(7)
		numInsts := 3 + rng.Intn(10)
		m := portmap.Random(rng, portmap.RandomOptions{
			NumInsts: numInsts, NumPorts: numPorts,
		})
		e := portmap.RandomExperiment(rng, numInsts, 1+rng.Intn(6))
		bn := OfExperiment(m, e)
		lpVal, err := OfExperimentLP(m, e)
		if err != nil {
			t.Fatalf("trial %d: LP error: %v", trial, err)
		}
		if math.Abs(bn-lpVal) > 1e-6 {
			t.Fatalf("trial %d: bottleneck %g != LP %g\nmapping:\n%s\nexperiment: %v",
				trial, bn, lpVal, m, e)
		}
	}
}

// TestThroughputLowerBound checks the invariant from the initialization
// rationale (§4.4): an instruction with n instances of µop u has
// individual throughput at least n/|u|.
func TestThroughputLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		numPorts := 1 + rng.Intn(8)
		u := portmap.RandomPortSet(rng, numPorts)
		n := 1 + rng.Intn(5)
		terms := []portmap.MassTerm{{Ports: u, Mass: float64(n)}}
		got := Bottleneck(terms)
		lower := float64(n) / float64(u.Count())
		if got < lower-1e-9 {
			t.Fatalf("throughput %g below lower bound %g for %d×%s", got, lower, n, u)
		}
	}
}

// TestThroughputMonotone checks that adding mass never decreases the
// throughput.
func TestThroughputMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 200; trial++ {
		numPorts := 2 + rng.Intn(6)
		terms := randomTerms(rng, numPorts, 1+rng.Intn(6))
		base := Bottleneck(terms)
		more := append(append([]portmap.MassTerm(nil), terms...),
			portmap.MassTerm{Ports: portmap.RandomPortSet(rng, numPorts), Mass: rng.Float64() * 3})
		grown := Bottleneck(more)
		if grown < base-1e-9 {
			t.Fatalf("adding mass decreased throughput: %g -> %g", base, grown)
		}
	}
}

// TestThroughputScaling checks homogeneity: scaling all masses by c
// scales the throughput by c.
func TestThroughputScaling(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		numPorts := 2 + rng.Intn(6)
		terms := randomTerms(rng, numPorts, 1+rng.Intn(6))
		c := 0.5 + rng.Float64()*4
		scaled := make([]portmap.MassTerm, len(terms))
		for i, mt := range terms {
			scaled[i] = portmap.MassTerm{Ports: mt.Ports, Mass: mt.Mass * c}
		}
		a, b := Bottleneck(terms), Bottleneck(scaled)
		if math.Abs(a*c-b) > 1e-6*(1+math.Abs(b)) {
			t.Fatalf("scaling violated: %g * %g != %g", a, c, b)
		}
	}
}

// TestThreeLevelReduction verifies the §3.2 reduction: computing the
// three-level throughput via Flatten matches a hand-constructed
// two-level problem over µops.
func TestThreeLevelReduction(t *testing.T) {
	m := paperExampleMapping()
	// Experiment {mul→1, add→1, store→1}: µop masses are
	// p0: 2 (mul), p01: 1 (add) + 1 (store), p2: 1 (store).
	e := portmap.Experiment{{Inst: 0, Count: 1}, {Inst: 1, Count: 1}, {Inst: 3, Count: 1}}
	manual := []portmap.MassTerm{
		{Ports: portmap.MakePortSet(0), Mass: 2},
		{Ports: portmap.MakePortSet(0, 1), Mass: 2},
		{Ports: portmap.MakePortSet(2), Mass: 1},
	}
	if got, want := OfExperiment(m, e), Bottleneck(manual); math.Abs(got-want) > 1e-9 {
		t.Errorf("reduction mismatch: %g vs %g", got, want)
	}
}

func TestEvaluatorReuse(t *testing.T) {
	three := paperExampleMapping()
	two := twoLevelPaperMapping()
	var ev Evaluator
	e1 := portmap.Experiment{{Inst: 0, Count: 1}}
	e2 := portmap.Experiment{{Inst: 1, Count: 2}, {Inst: 0, Count: 1}, {Inst: 3, Count: 1}}
	if got := ev.ThroughputOf(three, e1); math.Abs(got-2) > 1e-9 {
		t.Errorf("first eval = %g, want 2", got)
	}
	// Under the three-level mapping, e2 has masses p0:2, p01:3, p2:1;
	// the bottleneck is {P0,P1} with 5/2 = 2.5.
	if got := ev.ThroughputOf(three, e2); math.Abs(got-2.5) > 1e-9 {
		t.Errorf("second eval = %g, want 2.5", got)
	}
	// Same experiment under the two-level Figure 2 mapping: 1.5.
	if got := ev.ThroughputOf(two, e2); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("third eval = %g, want 1.5", got)
	}
	// Re-evaluating the first must still be correct (buffer reuse).
	if got := ev.ThroughputOf(three, e1); math.Abs(got-2) > 1e-9 {
		t.Errorf("fourth eval = %g, want 2", got)
	}
}

func TestHighPortIndices(t *testing.T) {
	// Ports well above the dense range exercise compaction.
	terms := []portmap.MassTerm{
		{Ports: portmap.MakePortSet(40, 50), Mass: 4},
		{Ports: portmap.MakePortSet(50, 63), Mass: 2},
	}
	// Q={40,50}: 4/2=2; Q={50,63}: 2/2=1; Q=all: 6/3=2.
	if got := Bottleneck(terms); math.Abs(got-2) > 1e-9 {
		t.Errorf("throughput = %g, want 2", got)
	}
	if got := BottleneckUnion(terms); math.Abs(got-2) > 1e-9 {
		t.Errorf("union throughput = %g, want 2", got)
	}
}

func TestBottleneckPanicsAboveTableLimit(t *testing.T) {
	var terms []portmap.MassTerm
	for k := 0; k < 23; k++ {
		terms = append(terms, portmap.MassTerm{Ports: portmap.SinglePort(k), Mass: 1})
	}
	defer func() {
		if recover() == nil {
			t.Error("Bottleneck with 23 ports did not panic")
		}
	}()
	Bottleneck(terms)
}

func TestLPOutOfRangePort(t *testing.T) {
	terms := []portmap.MassTerm{{Ports: portmap.MakePortSet(5), Mass: 1}}
	if _, err := LP(terms, 3); err == nil {
		t.Error("LP with out-of-range port succeeded")
	}
}

func TestAnalyzePaperExample(t *testing.T) {
	// Figure 3: e = {add→2, mul→1, store→1}; optimal allocation loads
	// P1 and P2 with 1.5 each and P3 with 1; bottleneck = {P1, P2}.
	m := twoLevelPaperMapping()
	e := portmap.Experiment{{Inst: 1, Count: 2}, {Inst: 0, Count: 1}, {Inst: 3, Count: 1}}
	a, err := Analyze(m, e)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if math.Abs(a.Throughput-1.5) > 1e-6 {
		t.Errorf("Throughput = %g, want 1.5", a.Throughput)
	}
	if math.Abs(a.PortLoad[0]-1.5) > 1e-6 || math.Abs(a.PortLoad[1]-1.5) > 1e-6 {
		t.Errorf("PortLoad = %v, want 1.5 on P0 and P1", a.PortLoad)
	}
	if math.Abs(a.PortLoad[2]-1) > 1e-6 {
		t.Errorf("PortLoad[2] = %g, want 1", a.PortLoad[2])
	}
	if a.Bottleneck != portmap.MakePortSet(0, 1) {
		t.Errorf("Bottleneck = %s, want {P0,P1}", a.Bottleneck)
	}
	// Render should not crash and should mention the throughput.
	out := a.Render([]string{"P1", "P2", "P3"})
	if len(out) == 0 {
		t.Error("empty render")
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	m := twoLevelPaperMapping()
	a, err := Analyze(m, nil)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if a.Throughput != 0 {
		t.Errorf("Throughput = %g, want 0", a.Throughput)
	}
}

func TestAnalyzeLoadConservation(t *testing.T) {
	// Port loads must sum to the total µop mass.
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		numPorts := 2 + rng.Intn(6)
		numInsts := 2 + rng.Intn(8)
		m := portmap.Random(rng, portmap.RandomOptions{NumInsts: numInsts, NumPorts: numPorts})
		e := portmap.RandomExperiment(rng, numInsts, 1+rng.Intn(5))
		a, err := Analyze(m, e)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		totalMass := 0.0
		for _, mt := range m.Flatten(e) {
			totalMass += mt.Mass
		}
		gotMass := 0.0
		for _, l := range a.PortLoad {
			gotMass += l
			if l > a.Throughput+1e-6 {
				t.Fatalf("trial %d: port load %g exceeds throughput %g", trial, l, a.Throughput)
			}
		}
		if math.Abs(gotMass-totalMass) > 1e-6 {
			t.Fatalf("trial %d: loads sum to %g, want %g", trial, gotMass, totalMass)
		}
	}
}

// wideTerms builds a term list far above smallMergeCutoff with many
// duplicate port sets, the workload where the merge strategy matters.
func wideTerms(rng *rand.Rand, numTerms, numPorts, distinct int) []portmap.MassTerm {
	sets := make([]portmap.PortSet, distinct)
	for i := range sets {
		var p portmap.PortSet
		for p.IsEmpty() {
			for k := 0; k < numPorts; k++ {
				if rng.Intn(3) == 0 {
					p = p.With(k)
				}
			}
		}
		sets[i] = p
	}
	terms := make([]portmap.MassTerm, numTerms)
	for i := range terms {
		terms[i] = portmap.MassTerm{Ports: sets[rng.Intn(distinct)], Mass: 1 + rng.Float64()}
	}
	return terms
}

// TestMergeTermsIndexedMatchesLinear checks that the wide-input index
// path of mergeTerms produces the identical merged list (same
// first-occurrence order, same masses) as the linear path.
func TestMergeTermsIndexedMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		terms := wideTerms(rng, smallMergeCutoff+1+rng.Intn(200), 10, 1+rng.Intn(30))
		var linEv, idxEv Evaluator
		linUsed, linOK := linEv.mergeTermsLinear(terms)
		idxUsed, idxOK := idxEv.mergeTermsIndexed(terms)
		if linOK != idxOK || linUsed != idxUsed {
			t.Fatalf("trial %d: (used, ok) diverged: (%v,%v) vs (%v,%v)",
				trial, linUsed, linOK, idxUsed, idxOK)
		}
		if len(linEv.masks) != len(idxEv.masks) {
			t.Fatalf("trial %d: %d vs %d merged terms", trial, len(linEv.masks), len(idxEv.masks))
		}
		for i := range linEv.masks {
			if linEv.masks[i] != idxEv.masks[i] {
				t.Fatalf("trial %d: merged term %d diverged: %+v vs %+v",
					trial, i, linEv.masks[i], idxEv.masks[i])
			}
		}
	}
}

// BenchmarkMergeTerms compares the pre-optimization O(d²) linear-scan
// merge against the indexed merge on a wide workload (512 terms, 160
// distinct port sets), and documents that the linear scan stays ahead
// on the narrow workloads of the evolutionary hot loop.
func BenchmarkMergeTerms(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	wide := wideTerms(rng, 512, 12, 160)
	narrow := wideTerms(rng, 8, 6, 4)
	b.Run("Wide/Linear", func(b *testing.B) {
		var ev Evaluator
		for i := 0; i < b.N; i++ {
			ev.mergeTermsLinear(wide)
		}
	})
	b.Run("Wide/Indexed", func(b *testing.B) {
		var ev Evaluator
		for i := 0; i < b.N; i++ {
			ev.mergeTermsIndexed(wide)
		}
	})
	b.Run("Narrow/Linear", func(b *testing.B) {
		var ev Evaluator
		for i := 0; i < b.N; i++ {
			ev.mergeTermsLinear(narrow)
		}
	})
	b.Run("Narrow/Dispatched", func(b *testing.B) {
		var ev Evaluator
		for i := 0; i < b.N; i++ {
			ev.mergeTerms(narrow)
		}
	})
}

// TestZetaTransformMatchesPassLoop pins the fused zeta transform bit for
// bit to the textbook one-pass-per-bit loop on fractional inputs, where
// any change in the order of additions per entry would show.
func TestZetaTransformMatchesPassLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for k := 0; k <= 12; k++ {
		for trial := 0; trial < 20; trial++ {
			got := make([]float64, 1<<uint(k))
			for i := range got {
				got[i] = rng.Float64() * math.Pow(10, float64(rng.Intn(7)-3))
			}
			want := append([]float64(nil), got...)
			for b := 0; b < k; b++ {
				for q := range want {
					if q&(1<<uint(b)) != 0 {
						want[q] += want[q^(1<<uint(b))]
					}
				}
			}
			zetaTransform(got, k)
			for q := range got {
				if math.Float64bits(got[q]) != math.Float64bits(want[q]) {
					t.Fatalf("k=%d entry %d: %v, want %v", k, q, got[q], want[q])
				}
			}
		}
	}
}
