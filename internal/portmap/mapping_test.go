package portmap

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// paperExampleMapping builds the three-level mapping of Figure 4:
// mul = 2×U1(p1), add = sub = 1×U2(p12), store = 1×U2(p12) + 1×U3(p3),
// with instructions indexed mul=0, add=1, sub=2, store=3 and ports
// P1..P3 mapped to indices 0..2.
func paperExampleMapping() *Mapping {
	m := NewMapping(4, 3)
	m.InstNames = []string{"mul", "add", "sub", "store"}
	u1 := MakePortSet(0)
	u2 := MakePortSet(0, 1)
	u3 := MakePortSet(2)
	m.SetDecomp(0, []UopCount{{u1, 2}})
	m.SetDecomp(1, []UopCount{{u2, 1}})
	m.SetDecomp(2, []UopCount{{u2, 1}})
	m.SetDecomp(3, []UopCount{{u2, 1}, {u3, 1}})
	return m
}

func TestMappingValidate(t *testing.T) {
	m := paperExampleMapping()
	if err := m.Validate(); err != nil {
		t.Fatalf("valid mapping rejected: %v", err)
	}

	empty := NewMapping(1, 3)
	if err := empty.Validate(); err == nil {
		t.Error("mapping with empty decomposition accepted")
	}

	bad := NewMapping(1, 3)
	bad.Decomp[0] = []UopCount{{Ports: 0, Count: 1}}
	if err := bad.Validate(); err == nil {
		t.Error("µop with empty port set accepted")
	}

	oob := NewMapping(1, 3)
	oob.Decomp[0] = []UopCount{{Ports: MakePortSet(5), Count: 1}}
	if err := oob.Validate(); err == nil {
		t.Error("µop with out-of-range port accepted")
	}

	neg := NewMapping(1, 3)
	neg.Decomp[0] = []UopCount{{Ports: MakePortSet(0), Count: -1}}
	if err := neg.Validate(); err == nil {
		t.Error("negative µop count accepted")
	}
}

// TestSetDecompCanonicalizes: SetDecomp stores the unique canonical
// form of a decomposition — sorted by port set, duplicates merged,
// non-positive totals dropped — checked against a map-based reference,
// including decompositions longer than any real instruction's.
func TestSetDecompCanonicalizes(t *testing.T) {
	// reference merges by port set in a map and sorts the survivors.
	reference := func(uops []UopCount) []UopCount {
		merged := map[PortSet]int{}
		for _, uc := range uops {
			merged[uc.Ports] += uc.Count
		}
		out := []UopCount{}
		for ports, count := range merged {
			if count > 0 {
				out = append(out, UopCount{Ports: ports, Count: count})
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Ports < out[j].Ports })
		return out
	}
	// long has 40 entries over 7 port sets, in descending order, with
	// zero and negative counts; one port set's total is zero and
	// another's negative.
	var long []UopCount
	for i := 39; i >= 0; i-- {
		long = append(long, UopCount{Ports: PortSet(1 + i%7), Count: i%5 - 1})
	}
	long = append(long, UopCount{MakePortSet(5), 3}, UopCount{MakePortSet(5), -3}, UopCount{MakePortSet(6), -1})
	cases := []struct {
		name string
		uops []UopCount
		want []UopCount
	}{
		{"empty", nil, []UopCount{}},
		{"merge-and-drop", []UopCount{
			{MakePortSet(1, 2), 1},
			{MakePortSet(0), 2},
			{MakePortSet(1, 2), 3}, // merged with first
			{MakePortSet(3), 0},    // dropped
		}, []UopCount{{MakePortSet(0), 2}, {MakePortSet(1, 2), 4}}},
		{"long", long, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := c.want
			if want == nil {
				want = reference(c.uops)
			}
			m := NewMapping(1, 8)
			m.SetDecomp(0, c.uops)
			if got := m.Decomp[0]; got == nil || !reflect.DeepEqual(got, want) {
				t.Errorf("SetDecomp(%v) = %#v, want %#v", c.uops, got, want)
			}
		})
	}
}

func TestVolume(t *testing.T) {
	m := paperExampleMapping()
	// mul: 2*|p0|=2, add: 1*2=2, sub: 2, store: 1*2+1*1=3 → total 9.
	if v := m.Volume(); v != 9 {
		t.Errorf("Volume = %d, want 9", v)
	}
	if v := m.VolumeOf([]int{0, 3}); v != 5 {
		t.Errorf("VolumeOf(mul, store) = %d, want 5", v)
	}
}

func TestDistinctUops(t *testing.T) {
	m := paperExampleMapping()
	uops := m.DistinctUops()
	if len(uops) != 3 {
		t.Fatalf("DistinctUops = %v, want 3 entries", uops)
	}
	want := []PortSet{MakePortSet(0), MakePortSet(2), MakePortSet(0, 1)}
	// DistinctUops sorts by raw bitmask value: p0=1, p2=4... wait p01=3.
	// Sorted: {P0}=1, {P0,P1}=3, {P2}=4.
	want = []PortSet{MakePortSet(0), MakePortSet(0, 1), MakePortSet(2)}
	for i, u := range uops {
		if u != want[i] {
			t.Errorf("DistinctUops[%d] = %s, want %s", i, u, want[i])
		}
	}
}

func TestUopCountOf(t *testing.T) {
	m := paperExampleMapping()
	wants := []int{2, 1, 1, 2}
	for i, w := range wants {
		if got := m.UopCountOf(i); got != w {
			t.Errorf("UopCountOf(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestFlattenPaperExample(t *testing.T) {
	// Experiment from Example 1: {add→2, mul→1, store→1}.
	m := paperExampleMapping()
	e := Experiment{{Inst: 1, Count: 2}, {Inst: 0, Count: 1}, {Inst: 3, Count: 1}}
	terms := m.Flatten(e)
	// Expected masses: U2(p01): 2 (add) + 1 (store) = 3, U1(p0): 2 (mul), U3(p2): 1.
	got := make(map[PortSet]float64)
	for _, mt := range terms {
		got[mt.Ports] += mt.Mass
	}
	want := map[PortSet]float64{
		MakePortSet(0, 1): 3,
		MakePortSet(0):    2,
		MakePortSet(2):    1,
	}
	if len(got) != len(want) {
		t.Fatalf("Flatten produced %v, want %v", got, want)
	}
	for ports, mass := range want {
		if math.Abs(got[ports]-mass) > 1e-12 {
			t.Errorf("mass[%s] = %g, want %g", ports, got[ports], mass)
		}
	}
}

func TestFlattenIntoReuse(t *testing.T) {
	m := paperExampleMapping()
	e1 := Experiment{{Inst: 0, Count: 1}}
	e2 := Experiment{{Inst: 1, Count: 5}}
	buf := m.FlattenInto(nil, e1)
	buf = m.FlattenInto(buf, e2)
	if len(buf) != 1 || buf[0].Ports != MakePortSet(0, 1) || buf[0].Mass != 5 {
		t.Errorf("FlattenInto reuse produced %v", buf)
	}
}

func TestFlattenSkipsZeroCounts(t *testing.T) {
	m := paperExampleMapping()
	e := Experiment{{Inst: 0, Count: 0}, {Inst: 1, Count: 1}}
	terms := m.Flatten(e)
	if len(terms) != 1 {
		t.Errorf("Flatten kept zero-count term: %v", terms)
	}
}

func TestExperimentNormalize(t *testing.T) {
	e := Experiment{{Inst: 3, Count: 1}, {Inst: 1, Count: 2}, {Inst: 3, Count: 2}, {Inst: 5, Count: 0}}
	n := e.Normalize()
	if len(n) != 2 {
		t.Fatalf("Normalize = %v", n)
	}
	if n[0] != (InstCount{1, 2}) || n[1] != (InstCount{3, 3}) {
		t.Errorf("Normalize = %v", n)
	}
	if e.TotalCount() != 5 {
		t.Errorf("TotalCount = %d, want 5", e.TotalCount())
	}
	if n.Key() != "1:2,3:3" {
		t.Errorf("Key = %q", n.Key())
	}
	if e.Key() != n.Key() {
		t.Error("Key should be order-independent")
	}
}

// mapNormalize and mapKey are the reference forms of Normalize and Key:
// a map merge, a sort.Slice and fmt.Sprintf. The allocation-free
// sort-and-merge forms must return the same values.
func mapNormalize(e Experiment) Experiment {
	counts := make(map[int]int, len(e))
	for _, t := range e {
		counts[t.Inst] += t.Count
	}
	out := make(Experiment, 0, len(counts))
	for inst, c := range counts {
		if c != 0 {
			out = append(out, InstCount{Inst: inst, Count: c})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Inst < out[j].Inst })
	return out
}

func mapKey(e Experiment) string {
	n := mapNormalize(e)
	parts := make([]string, len(n))
	for i, t := range n {
		parts[i] = fmt.Sprintf("%d:%d", t.Inst, t.Count)
	}
	return strings.Join(parts, ",")
}

// TestNormalizeMatchesMapMerge pins Normalize, AppendNormalized and Key
// to the map-merge reference on repeated instructions, zero and
// negative counts (merged sums of zero are dropped, negative ones kept),
// counts that wrap, nil and empty input (a non-nil empty experiment and
// key ""), and random experiments of up to 12 terms. AppendNormalized
// must leave dst's prefix alone and allocate nothing when dst has room.
func TestNormalizeMatchesMapMerge(t *testing.T) {
	cases := []Experiment{
		nil,
		{},
		{{Inst: 4, Count: 0}},
		{{Inst: 2, Count: 1}, {Inst: 2, Count: 3}, {Inst: 2, Count: 2}},
		{{Inst: 3, Count: 1}, {Inst: 1, Count: 2}, {Inst: 3, Count: 2}, {Inst: 5, Count: 0}},
		{{Inst: 7, Count: -2}, {Inst: 1, Count: 4}, {Inst: 7, Count: 2}, {Inst: 0, Count: -1}},
		{{Inst: 9, Count: 3}, {Inst: -1, Count: 1}, {Inst: 9, Count: -3}, {Inst: -1, Count: 0}},
		{{Inst: 1, Count: math.MaxInt}, {Inst: 1, Count: 1}, {Inst: 0, Count: math.MinInt}},
		{{Inst: 12345678, Count: 98765}, {Inst: 3, Count: 1}},
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 300; i++ {
		e := make(Experiment, rng.Intn(13))
		for j := range e {
			e[j] = InstCount{Inst: rng.Intn(6), Count: rng.Intn(7) - 2}
		}
		cases = append(cases, e)
	}
	for _, e := range cases {
		orig := e.Clone()
		want, got := mapNormalize(e), e.Normalize()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: Normalize = %#v, map merge %#v", e, got, want)
		}
		if k, want := e.Key(), mapKey(e); k != want {
			t.Fatalf("%v: Key = %q, map merge %q", e, k, want)
		}
		prefix := Experiment{{Inst: -5, Count: 5}}
		dst := append(make(Experiment, 0, len(prefix)+len(e)), prefix...)
		var app Experiment
		if allocs := testing.AllocsPerRun(1, func() { app = e.AppendNormalized(dst) }); allocs != 0 {
			t.Fatalf("%v: AppendNormalized allocated %v times with room in dst", e, allocs)
		}
		if !reflect.DeepEqual(app[:1], prefix) || !reflect.DeepEqual(app[1:], want) {
			t.Fatalf("%v: AppendNormalized = %v, want %v then %v", e, app, prefix, want)
		}
		if !slices.Equal(e, orig) {
			t.Fatalf("normalizing changed its input: %v, was %v", e, orig)
		}
	}
}

func TestExperimentClone(t *testing.T) {
	e := Experiment{{Inst: 1, Count: 2}}
	c := e.Clone()
	c[0].Count = 99
	if e[0].Count != 2 {
		t.Error("Clone shares storage")
	}
}

func TestMappingCloneAndEqual(t *testing.T) {
	m := paperExampleMapping()
	c := m.Clone()
	if !m.Equal(c) {
		t.Fatal("clone not equal to original")
	}
	c.Decomp[0][0].Count++
	if m.Equal(c) {
		t.Error("mutated clone still equal")
	}
	if m.Decomp[0][0].Count != 2 {
		t.Error("clone shares decomposition storage")
	}

	// Different port counts are unequal.
	o := paperExampleMapping()
	o.NumPorts = 4
	if m.Equal(o) {
		t.Error("mappings with different port counts equal")
	}
}

func TestIsTwoLevel(t *testing.T) {
	two := TwoLevelFromPorts(3, []PortSet{MakePortSet(0), MakePortSet(0, 1)})
	if !two.IsTwoLevel() {
		t.Error("TwoLevelFromPorts result not two-level")
	}
	if err := two.Validate(); err != nil {
		t.Errorf("two-level mapping invalid: %v", err)
	}
	three := paperExampleMapping()
	if three.IsTwoLevel() {
		t.Error("paper example (mul has 2 µops) reported as two-level")
	}
}

func TestMappingString(t *testing.T) {
	m := paperExampleMapping()
	s := m.String()
	if !strings.Contains(s, "mul: 2*p0") {
		t.Errorf("String missing mul decomposition:\n%s", s)
	}
	if !strings.Contains(s, "store: 1*p01 + 1*p2") {
		t.Errorf("String missing store decomposition:\n%s", s)
	}
}

func TestPortUsageTable(t *testing.T) {
	m := paperExampleMapping()
	s := m.PortUsageTable()
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 {
		t.Fatalf("table has %d lines, want 5:\n%s", len(lines), s)
	}
	if !strings.HasPrefix(lines[1], "mul\t2\t.\t.") {
		t.Errorf("mul row = %q", lines[1])
	}
	if !strings.HasPrefix(lines[4], "store\t1\t1\t1") {
		t.Errorf("store row = %q", lines[4])
	}
}

func TestRandomMappingValid(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		hints := make([]float64, 20)
		for i := range hints {
			hints[i] = 0.25 + rng.Float64()*4
		}
		m := Random(rng, RandomOptions{NumInsts: 20, NumPorts: 8, ThroughputHint: hints})
		if err := m.Validate(); err != nil {
			t.Fatalf("trial %d: random mapping invalid: %v", trial, err)
		}
		if m.NumInsts() != 20 || m.NumPorts != 8 {
			t.Fatalf("trial %d: wrong dimensions", trial)
		}
		// Counts must respect the initialization bound ceil(t*(i)·|u|).
		for i, uops := range m.Decomp {
			hint := hints[i]
			if hint < 1 {
				hint = 1
			}
			for _, uc := range uops {
				bound := int(math.Ceil(hint * float64(uc.Ports.Count())))
				if uc.Count > bound {
					t.Errorf("trial %d inst %d: count %d exceeds bound %d",
						trial, i, uc.Count, bound)
				}
			}
		}
	}
}

func TestRandomMappingUsesMaxUops(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := Random(rng, RandomOptions{NumInsts: 100, NumPorts: 8, MaxUops: 2})
	for i, uops := range m.Decomp {
		if len(uops) > 2 {
			t.Fatalf("instruction %d has %d µops, want <= 2", i, len(uops))
		}
	}
}

func TestRandomPortSetNonEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		s := RandomPortSet(rng, 4)
		if s.IsEmpty() {
			t.Fatal("RandomPortSet returned empty set")
		}
		if !s.SubsetOf(FullPortSet(4)) {
			t.Fatalf("RandomPortSet returned out-of-range set %s", s)
		}
	}
}

func TestRandomExperiment(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		e := RandomExperiment(rng, 10, 5)
		if e.TotalCount() != 5 {
			t.Fatalf("experiment length %d, want 5", e.TotalCount())
		}
		for _, term := range e {
			if term.Inst < 0 || term.Inst >= 10 {
				t.Fatalf("instruction %d out of range", term.Inst)
			}
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	m := paperExampleMapping()
	m.PortNames = []string{"P1", "P2", "P3"}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if !m.Equal(got) {
		t.Errorf("round-trip mapping differs:\n%s\nvs\n%s", m, got)
	}
	if got.InstNames[3] != "store" {
		t.Errorf("InstNames lost: %v", got.InstNames)
	}
	if got.PortNames[0] != "P1" {
		t.Errorf("PortNames lost: %v", got.PortNames)
	}
}

func TestReadJSONRejectsInvalid(t *testing.T) {
	bad := []string{
		`{`,
		`{"num_ports": 0, "instructions": []}`,
		`{"num_ports": 3, "instructions": [{"name":"x","uops":[]}]}`,
		`{"num_ports": 3, "instructions": [{"name":"x","uops":[{"ports":"bogus","count":1}]}]}`,
	}
	for _, s := range bad {
		if _, err := ReadJSON(strings.NewReader(s)); err == nil {
			t.Errorf("ReadJSON(%q) succeeded, want error", s)
		}
	}
}

func TestNewMappingPanicsOnBadPorts(t *testing.T) {
	for _, n := range []int{0, -1, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMapping(1, %d) did not panic", n)
				}
			}()
			NewMapping(1, n)
		}()
	}
}
