package exp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"pmevo/internal/portmap"
	"pmevo/internal/throughput"
)

// modelMeasurer measures experiments exactly according to a ground-truth
// mapping (noise-free), for fast unit testing.
type modelMeasurer struct {
	m     *portmap.Mapping
	calls int
}

func (mm *modelMeasurer) Measure(e portmap.Experiment) (float64, error) {
	mm.calls++
	return throughput.OfExperiment(mm.m, e), nil
}

// failingMeasurer errors after k calls.
type failingMeasurer struct{ left int }

func (fm *failingMeasurer) Measure(e portmap.Experiment) (float64, error) {
	if fm.left <= 0 {
		return 0, errors.New("boom")
	}
	fm.left--
	return 1, nil
}

// readingMeasurer returns single[i] for the singleton {i→1} and pair
// for every other experiment.
type readingMeasurer struct {
	single []float64
	pair   float64
}

func (rm readingMeasurer) Measure(e portmap.Experiment) (float64, error) {
	if len(e) == 1 && e[0].Count == 1 {
		return rm.single[e[0].Inst], nil
	}
	return rm.pair, nil
}

func testMapping() *portmap.Mapping {
	// 3 instructions over 3 ports: i0 on {P0}, i1 on {P0,P1}, i2 two µops.
	m := portmap.NewMapping(3, 3)
	m.SetDecomp(0, []portmap.UopCount{{Ports: portmap.MakePortSet(0), Count: 1}})
	m.SetDecomp(1, []portmap.UopCount{{Ports: portmap.MakePortSet(0, 1), Count: 1}})
	m.SetDecomp(2, []portmap.UopCount{
		{Ports: portmap.MakePortSet(2), Count: 2},
	})
	return m
}

func TestSingletons(t *testing.T) {
	s := Singletons(3)
	if len(s) != 3 {
		t.Fatalf("got %d singletons", len(s))
	}
	for i, e := range s {
		if len(e) != 1 || e[0].Inst != i || e[0].Count != 1 {
			t.Errorf("singleton %d = %v", i, e)
		}
	}
}

func TestPairExperimentsShapes(t *testing.T) {
	// individual throughputs: i0: 1.0, i1: 0.5, i2: 2.0.
	ind := []float64{1.0, 0.5, 2.0}
	es := PairExperiments(ind)
	keys := make(map[string]bool)
	for _, e := range es {
		keys[e.Key()] = true
	}
	// Plain pairs.
	for _, want := range []string{"0:1,1:1", "0:1,2:1", "1:1,2:1"} {
		if !keys[want] {
			t.Errorf("missing pair %q", want)
		}
	}
	// Weighted pairs: t0 > t1 → {0:1, 1:2}; t2 > t0 → {2:1, 0:2};
	// t2 > t1 → {2:1, 1:4}.
	for _, want := range []string{"0:1,1:2", "0:2,2:1", "1:4,2:1"} {
		if !keys[want] {
			t.Errorf("missing weighted pair %q (have %v)", want, keys)
		}
	}
	if len(es) != 6 {
		t.Errorf("got %d experiments, want 6", len(es))
	}
}

func TestPairExperimentsEqualThroughputsNoWeighted(t *testing.T) {
	es := PairExperiments([]float64{1, 1})
	if len(es) != 1 {
		t.Fatalf("got %d experiments, want only the plain pair", len(es))
	}
}

func TestPairExperimentsDedup(t *testing.T) {
	// t0=2, t1=1: weighted pair is {0:1, 1:2}; no duplicate of the plain
	// pair appears even though ceil(2/1)=2.
	es := PairExperiments([]float64{2, 1})
	seen := make(map[string]int)
	for _, e := range es {
		seen[e.Key()]++
	}
	for k, n := range seen {
		if n > 1 {
			t.Errorf("experiment %q appears %d times", k, n)
		}
	}
}

func TestGenerateAndMeasure(t *testing.T) {
	mm := &modelMeasurer{m: testMapping()}
	set, err := GenerateAndMeasure(context.Background(), mm, 3)
	if err != nil {
		t.Fatal(err)
	}
	if set.NumInsts != 3 {
		t.Errorf("NumInsts = %d", set.NumInsts)
	}
	// Individual throughputs: i0 = 1 (single port), i1 = 0.5 (two
	// ports), i2 = 2 (two µops on one port).
	want := []float64{1, 0.5, 2}
	for i, w := range want {
		if math.Abs(set.Individual[i]-w) > 1e-9 {
			t.Errorf("Individual[%d] = %g, want %g", i, set.Individual[i], w)
		}
	}
	if set.NumExperiments() < 6 {
		t.Errorf("only %d experiments", set.NumExperiments())
	}
	if mm.calls != set.NumExperiments() {
		t.Errorf("measurer called %d times for %d experiments", mm.calls, set.NumExperiments())
	}
}

func TestGenerateAndMeasureErrors(t *testing.T) {
	if _, err := GenerateAndMeasure(context.Background(), &modelMeasurer{m: testMapping()}, 0); err == nil {
		t.Error("zero instructions accepted")
	}
	if _, err := GenerateAndMeasure(context.Background(), &failingMeasurer{left: 1}, 3); err == nil {
		t.Error("failing measurer not propagated")
	}
	if _, err := GenerateAndMeasure(context.Background(), &failingMeasurer{left: 4}, 3); err == nil {
		t.Error("failure in pair phase not propagated")
	}
	// Invalid readings are rejected, naming the experiment (want); a
	// singleton so fast that ⌈1/1e-300⌉ overflows an int must not turn
	// into a weighted pair with a wrapped count.
	bad := []struct {
		name string
		m    readingMeasurer
		want string
	}{
		{"NaN singleton", readingMeasurer{single: []float64{math.NaN(), 1, 1}, pair: 1}, "{0:1}"},
		{"+Inf pair", readingMeasurer{single: []float64{1, 1, 1}, pair: math.Inf(1)}, "{0:1,1:1}"},
		{"zero pair", readingMeasurer{single: []float64{1, 1, 1}, pair: 0}, "{0:1,1:1}"},
		{"1e-300 singleton", readingMeasurer{single: []float64{1, 1e-300}, pair: 1}, "does not fit an int"},
	}
	for _, c := range bad {
		set, err := GenerateAndMeasure(context.Background(), c.m, len(c.m.single))
		if err == nil {
			t.Errorf("%s: accepted, Individual %v, %d measurements", c.name, set.Individual, set.NumExperiments())
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestPairThroughputs(t *testing.T) {
	mm := &modelMeasurer{m: testMapping()}
	set, err := GenerateAndMeasure(context.Background(), mm, 3)
	if err != nil {
		t.Fatal(err)
	}
	pairs := set.PairThroughputs()
	// The pair {i0, i1} must be present with its model throughput:
	// masses p0:1, p01:1 → Q={P0}: 1, Q={P0,P1}: 1 → 1.
	tp, ok := pairs[PairKey{A: 0, CountA: 1, B: 1, CountB: 1}]
	if !ok {
		t.Fatal("pair (0,1) missing")
	}
	if math.Abs(tp-1) > 1e-9 {
		t.Errorf("pair (0,1) throughput = %g, want 1", tp)
	}
	// Singletons must not appear.
	for k := range pairs {
		if k.A == k.B {
			t.Errorf("degenerate pair key %+v", k)
		}
	}
}

func TestProject(t *testing.T) {
	mm := &modelMeasurer{m: testMapping()}
	set, err := GenerateAndMeasure(context.Background(), mm, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Keep instructions 0 and 2 (drop 1).
	keep := []int{0, -1, 1}
	proj := set.Project(keep, 2)
	if proj.NumInsts != 2 {
		t.Errorf("NumInsts = %d", proj.NumInsts)
	}
	if proj.Individual[0] != set.Individual[0] || proj.Individual[1] != set.Individual[2] {
		t.Errorf("Individual = %v", proj.Individual)
	}
	for _, m := range proj.Measurements {
		for _, term := range m.Exp {
			if term.Inst < 0 || term.Inst >= 2 {
				t.Errorf("projected experiment references instruction %d", term.Inst)
			}
		}
	}
	// All experiments containing old instruction 1 are gone: the
	// remaining two-instruction experiments must be over {0, 1(new)}.
	found := false
	for _, m := range proj.Measurements {
		if len(m.Exp.Normalize()) == 2 {
			found = true
		}
	}
	if !found {
		t.Error("no pair experiments survived projection")
	}
}

func TestRandomBenchmarkSet(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	set := RandomBenchmarkSet(rng, 10, 100, 5)
	if len(set) != 100 {
		t.Fatalf("got %d experiments", len(set))
	}
	distinct := make(map[string]bool)
	for _, e := range set {
		if e.TotalCount() != 5 {
			t.Errorf("experiment %v has length %d, want 5", e, e.TotalCount())
		}
		distinct[e.Key()] = true
	}
	if len(distinct) < 50 {
		t.Errorf("only %d distinct experiments of 100", len(distinct))
	}
}

func ExamplePairExperiments() {
	es := PairExperiments([]float64{2, 1})
	for _, e := range es {
		fmt.Println(e.Key())
	}
	// Output:
	// 0:1,1:1
	// 0:1,1:2
}
