package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"pmevo/internal/exp"
	"pmevo/internal/portmap"
	"pmevo/internal/throughput"
)

// twinPorts are the port counts the oracle-twin tests run at: 4 and 11
// take the unit-table route (11 is throughput.MaxUnitTablePorts), 12 the
// ThroughputOf route.
var twinPorts = []int{4, throughput.MaxUnitTablePorts, throughput.MaxUnitTablePorts + 1}

// newOracleTwins builds two services over the same measured set: the
// fast path and its oracle twin, which predicts every experiment through
// the generic Predictor interface with Default() (ThroughputOf). The set
// mixes every shape the fast path routes: the §4.1 singletons, which
// BottleneckTables predicts, and pairs and weighted pairs, which
// BottleneckPair predicts, plus one triple and one pair with a
// zero-count term, which stay on BottleneckTables. numInsts must be at
// least 5.
func newOracleTwins(t *testing.T, rng *rand.Rand, numInsts, numPorts int) (fast, twin *Service) {
	t.Helper()
	hidden, set := measuredSet(t, rng, numInsts, numPorts)
	for _, e := range []portmap.Experiment{
		{{Inst: 0, Count: 1}, {Inst: 1, Count: 2}, {Inst: 2, Count: 1}},
		{{Inst: 3, Count: 2}, {Inst: 4, Count: 0}},
	} {
		set.Measurements = append(set.Measurements, exp.Measurement{Exp: e, Throughput: throughput.OfExperiment(hidden, e)})
	}
	fast, err := NewService(set, ServiceOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	twin, err = NewService(set, ServiceOptions{Predictor: Default()})
	if err != nil {
		t.Fatal(err)
	}
	return fast, twin
}

// sameFitness reports whether two fitnesses are equal bit for bit.
func sameFitness(a, b Fitness) bool {
	return math.Float64bits(a.Davg) == math.Float64bits(b.Davg) && a.Volume == b.Volume
}

// TestMemoizedDavgBitIdentical is the central fast-path property: every
// entry point — Evaluate, EvaluateAll, NewState and EvaluateDelta —
// predicts through per-scratch unit tables memoized by decomposition
// fingerprint (or, above throughput.MaxUnitTablePorts, ThroughputOf),
// and must return a Davg bit-identical to the ThroughputOf oracle twin
// on a set that sends experiments to both table kernels. The batch holds
// clones and repeats, which reuse cached tables. It also pins the
// kernel-call counter: one call per fast-path experiment predicted,
// whichever kernel predicts it.
func TestMemoizedDavgBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, k := range twinPorts {
		fast, twin := newOracleTwins(t, rng, 10, k)
		pairs := 0
		for _, p := range fast.pair {
			if p {
				pairs++
			}
		}
		if pairs == 0 || pairs == len(fast.pair) {
			t.Fatalf("k=%d: %d of %d experiments are pairs; the set must exercise both kernels", k, pairs, len(fast.pair))
		}
		var ms []*portmap.Mapping
		for i := 0; i < 8; i++ {
			m := portmap.Random(rng, portmap.RandomOptions{NumInsts: 10, NumPorts: k, MaxUops: 3})
			ms = append(ms, m, m.Clone())
		}
		ms = append(ms, ms[:4]...)
		want := make([]Fitness, len(ms))
		for i, m := range ms {
			f, err := twin.Evaluate(m)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = f
		}
		check := func(route string, got []Fitness) {
			t.Helper()
			for i := range ms {
				if !sameFitness(got[i], want[i]) {
					t.Fatalf("k=%d %s: mapping %d: fast %+v != oracle %+v", k, route, i, got[i], want[i])
				}
			}
		}
		got := make([]Fitness, len(ms))
		for i, m := range ms {
			f, err := fast.Evaluate(m)
			if err != nil {
				t.Fatal(err)
			}
			got[i] = f
		}
		check("Evaluate", got)
		if err := fast.EvaluateAll(context.Background(), ms, got); err != nil {
			t.Fatal(err)
		}
		check("EvaluateAll", got)
		for i, m := range ms {
			st, err := fast.NewState(m)
			if err != nil {
				t.Fatal(err)
			}
			got[i] = st.Fitness()
		}
		check("NewState", got)

		st := fast.Stats()
		if want := int64(fast.NumExperiments()) * int64(fast.Evaluations()); st.MemoMisses != want {
			t.Errorf("k=%d: kernel calls = %d, want experiments*evaluations = %d", k, st.MemoMisses, want)
		}
		if st.MemoHits != 0 || st.MemoEntries != 0 || st.MemoResizes != 0 {
			t.Errorf("k=%d: retired memo counters moved: %+v", k, st)
		}
		if ts := twin.Stats(); ts.MemoMisses != 0 {
			t.Errorf("k=%d: generic path counted %d kernel calls", k, ts.MemoMisses)
		}

		// One committed delta probe per instruction, each re-predicting
		// the experiments that name it.
		m := ms[0].Clone()
		state, err := fast.NewState(m)
		if err != nil {
			t.Fatal(err)
		}
		calls := fast.Stats().MemoMisses
		for inst := range m.Decomp {
			m.SetUopCount(inst, 0, m.Decomp[inst][0].Count+1)
			got, err := fast.EvaluateDelta(state, inst)
			if err != nil {
				t.Fatal(err)
			}
			want, err := twin.Evaluate(m)
			if err != nil {
				t.Fatal(err)
			}
			if !sameFitness(got, want) {
				t.Fatalf("k=%d EvaluateDelta on instruction %d: fast %+v != oracle %+v", k, inst, got, want)
			}
			state.Commit()
			calls += int64(fast.ExperimentsWith(inst))
		}
		if got := fast.Stats().MemoMisses; got != calls {
			t.Errorf("k=%d: kernel calls after the delta probes = %d, want %d", k, got, calls)
		}
	}
}

// TestEvaluateDeltaBitIdentical drives random single-instruction edit
// sequences through the NewState/EvaluateDelta/Commit protocol — on the
// fast path and on its oracle twin, at every port count of twinPorts —
// and checks every pending and committed fitness bit for bit against a
// fresh full evaluation of an equal mapping by the oracle twin.
func TestEvaluateDeltaBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for _, k := range twinPorts {
		fast, twin := newOracleTwins(t, rng, 9, k)
		for _, svc := range []*Service{fast, twin} {
			evaluateDeltaTrials(t, rng, svc, twin, k)
		}
		if fast.Stats().DeltaEvaluations == 0 || twin.Stats().DeltaEvaluations == 0 {
			t.Error("no delta evaluations recorded")
		}
		if fast.Stats().DeltaExperimentsSkipped == 0 {
			t.Error("delta evaluation skipped no experiments on §4.1-style sets")
		}
	}
}

// evaluateDeltaTrials runs random edit sequences on svc and checks them
// against full evaluations by twin.
func evaluateDeltaTrials(t *testing.T, rng *rand.Rand, svc, twin *Service, k int) {
	t.Helper()
	for trial := 0; trial < 6; trial++ {
		m := portmap.Random(rng, portmap.RandomOptions{NumInsts: 9, NumPorts: k, MaxUops: 3})
		st, err := svc.NewState(m)
		if err != nil {
			t.Fatal(err)
		}
		full, err := twin.Evaluate(m.Clone())
		if err != nil {
			t.Fatal(err)
		}
		if !sameFitness(st.Fitness(), full) {
			t.Fatalf("k=%d trial %d: NewState %+v != full %+v", k, trial, st.Fitness(), full)
		}
		for edit := 0; edit < 30; edit++ {
			inst := rng.Intn(9)
			j := rng.Intn(len(m.Decomp[inst]))
			// Random probe: bump a count, drop a µop, or add one.
			var revert func()
			switch op := rng.Intn(3); {
			case op == 0:
				orig := m.Decomp[inst][j].Count
				m.SetUopCount(inst, j, orig+1)
				revert = func() { m.SetUopCount(inst, j, orig) }
			case op == 1 && len(m.Decomp[inst]) > 1:
				uc := m.RemoveUopAt(inst, j)
				revert = func() { m.InsertUopAt(inst, j, uc) }
			default:
				ports := portmap.RandomPortSet(rng, k)
				before := append([]portmap.UopCount(nil), m.Decomp[inst]...)
				m.AddUop(inst, ports, 1+rng.Intn(2))
				revert = func() { m.SetDecomp(inst, before) }
			}
			fit, err := svc.EvaluateDelta(st, inst)
			if err != nil {
				t.Fatal(err)
			}
			want, err := twin.Evaluate(m.Clone())
			if err != nil {
				t.Fatal(err)
			}
			if !sameFitness(fit, want) {
				t.Fatalf("k=%d trial %d edit %d: delta %+v != full %+v", k, trial, edit, fit, want)
			}
			if rng.Intn(2) == 0 {
				st.Commit()
				if !sameFitness(st.Fitness(), want) {
					t.Fatalf("k=%d trial %d edit %d: committed %+v != full %+v", k, trial, edit, st.Fitness(), want)
				}
			} else {
				revert()
			}
		}
		// After the edit sequence the state must still agree with a
		// fresh full evaluation (one more delta on a fresh edit).
		m.SetUopCount(0, 0, m.Decomp[0][0].Count+1)
		fit, err := svc.EvaluateDelta(st, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, err := twin.Evaluate(m.Clone())
		if err != nil {
			t.Fatal(err)
		}
		if !sameFitness(fit, want) {
			t.Fatalf("k=%d trial %d: final delta %+v != full %+v", k, trial, fit, want)
		}
	}
}

// TestEvaluateDeltaGenericPredictor runs the delta protocol through a
// generic (non-fast-path) engine and checks it against full generic
// evaluations.
func TestEvaluateDeltaGenericPredictor(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	_, set := measuredSet(t, rng, 6, 3)
	union, err := ByName("union")
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(set, ServiceOptions{Predictor: union})
	if err != nil {
		t.Fatal(err)
	}
	m := portmap.Random(rng, portmap.RandomOptions{NumInsts: 6, NumPorts: 3, MaxUops: 2})
	st, err := svc.NewState(m)
	if err != nil {
		t.Fatal(err)
	}
	for edit := 0; edit < 10; edit++ {
		inst := rng.Intn(6)
		m.SetUopCount(inst, 0, m.Decomp[inst][0].Count+1)
		fit, err := svc.EvaluateDelta(st, inst)
		if err != nil {
			t.Fatal(err)
		}
		st.Commit()
		want, err := svc.Evaluate(m)
		if err != nil {
			t.Fatal(err)
		}
		if fit != want {
			t.Fatalf("edit %d: generic delta %+v != full %+v", edit, fit, want)
		}
	}
}

// TestEvaluateDeltaValidation covers the error paths of the delta API.
func TestEvaluateDeltaValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	_, set := measuredSet(t, rng, 5, 3)
	svc, err := NewService(set, ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewService(set, ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := portmap.Random(rng, portmap.RandomOptions{NumInsts: 5, NumPorts: 3})
	st, err := svc.NewState(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.EvaluateDelta(st, -1); err == nil {
		t.Error("negative instruction accepted")
	}
	if _, err := svc.EvaluateDelta(st, 99); err == nil {
		t.Error("out-of-range instruction accepted")
	}
	if _, err := other.EvaluateDelta(st, 0); err == nil {
		t.Error("foreign fitness state accepted")
	}
	st.Commit() // no pending delta: must be a no-op
	if st.Mapping() != m {
		t.Error("Mapping() does not return the tracked mapping")
	}
}

// TestConcurrentEvaluation hammers one fast-path service from many
// goroutines at once, each alternating Evaluate with EvaluateAll batches
// that fan out over the service's own workers, over a small set of
// shared mappings at every port count of twinPorts. Under -race this
// verifies that concurrent calls never share a scratch from the free
// list; every result must match the oracle twin bit for bit.
func TestConcurrentEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, k := range twinPorts {
		fast, twin := newOracleTwins(t, rng, 8, k)
		mappings := make([]*portmap.Mapping, 6)
		want := make([]Fitness, len(mappings))
		for i := range mappings {
			mappings[i] = portmap.Random(rng, portmap.RandomOptions{NumInsts: 8, NumPorts: k, MaxUops: 2})
			f, err := twin.Evaluate(mappings[i])
			if err != nil {
				t.Fatal(err)
			}
			want[i] = f
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				batch := make([]*portmap.Mapping, 12)
				got := make([]Fitness, len(batch))
				for iter := 0; iter < 20; iter++ {
					if iter%2 == 0 {
						i := (g + iter) % len(mappings)
						if f, err := fast.Evaluate(mappings[i]); err != nil || !sameFitness(f, want[i]) {
							t.Errorf("k=%d: concurrent Evaluate = %+v, %v; want %+v", k, f, err, want[i])
							return
						}
						continue
					}
					for j := range batch {
						batch[j] = mappings[(g+iter+j)%len(mappings)]
					}
					if err := fast.EvaluateAll(context.Background(), batch, got); err != nil {
						t.Errorf("k=%d: %v", k, err)
						return
					}
					for j := range batch {
						if w := want[(g+iter+j)%len(mappings)]; !sameFitness(got[j], w) {
							t.Errorf("k=%d: concurrent EvaluateAll diverged: %+v != %+v", k, got[j], w)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestScratchesReused pins the free list: sequential batches at Workers
// 3 reuse the three scratches the first batch made, and Evaluate takes
// one of them instead of making a fourth.
func TestScratchesReused(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	_, set := measuredSet(t, rng, 8, 4)
	svc, err := NewService(set, ServiceOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]*portmap.Mapping, 10)
	for i := range batch {
		batch[i] = portmap.Random(rng, portmap.RandomOptions{NumInsts: 8, NumPorts: 4, MaxUops: 2})
	}
	out := make([]Fitness, len(batch))
	for b := 0; b < 20; b++ {
		if err := svc.EvaluateAll(context.Background(), batch, out); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.Evaluate(batch[0]); err != nil {
		t.Fatal(err)
	}
	if n := len(svc.free); n != 3 {
		t.Errorf("free list holds %d scratches after 20 batches at Workers 3, want 3", n)
	}
}

// TestInvertedIndex checks the instruction → experiments index against a
// direct scan.
func TestInvertedIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	_, set := measuredSet(t, rng, 7, 3)
	svc, err := NewService(set, ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for inst := 0; inst < 7; inst++ {
		var want []int32
		for i, m := range set.Measurements {
			for _, term := range m.Exp {
				if term.Inst == inst {
					want = append(want, int32(i))
					break
				}
			}
		}
		got := svc.instExps[inst]
		if len(got) != len(want) {
			t.Fatalf("inst %d: index has %d experiments, want %d", inst, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("inst %d: index[%d] = %d, want %d", inst, k, got[k], want[k])
			}
		}
		if svc.ExperimentsWith(inst) != len(want) {
			t.Fatalf("ExperimentsWith(%d) = %d, want %d", inst, svc.ExperimentsWith(inst), len(want))
		}
		// §4.1 sets are pair experiments: the per-instruction slice must
		// be a strict subset of all experiments.
		if len(got) >= svc.NumExperiments() {
			t.Fatalf("inst %d: index not sparse (%d of %d)", inst, len(got), svc.NumExperiments())
		}
	}
}

// TestNegativeCountRejected: NewService must reject negative experiment
// counts (the parts-based fast path relies on non-negative masses).
func TestNegativeCountRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	_, set := measuredSet(t, rng, 4, 3)
	set.Measurements[0].Exp = portmap.Experiment{{Inst: 0, Count: -1}}
	if _, err := NewService(set, ServiceOptions{}); err == nil {
		t.Error("negative experiment count accepted")
	}
}

// TestEvaluateDeltaOversizedMapping: NewState admits mappings covering
// more instructions than the experiment set; probing and committing an
// edit on an extra instruction (which occurs in no experiment) must
// change only the volume — and must not crash.
func TestEvaluateDeltaOversizedMapping(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	_, set := measuredSet(t, rng, 4, 3)
	svc, err := NewService(set, ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := portmap.Random(rng, portmap.RandomOptions{NumInsts: 6, NumPorts: 3, MaxUops: 2})
	st, err := svc.NewState(m)
	if err != nil {
		t.Fatal(err)
	}
	base := st.Fitness()
	m.SetUopCount(5, 0, m.Decomp[5][0].Count+1)
	fit, err := svc.EvaluateDelta(st, 5)
	if err != nil {
		t.Fatal(err)
	}
	st.Commit()
	if fit.Davg != base.Davg {
		t.Errorf("editing an unused instruction changed Davg: %v -> %v", base.Davg, fit.Davg)
	}
	if fit.Volume != m.Volume() {
		t.Errorf("Volume = %d, want %d", fit.Volume, m.Volume())
	}
	if _, err := svc.EvaluateDelta(st, 6); err == nil {
		t.Error("instruction beyond the mapping accepted")
	}
}

// failingPredictor errors on every experiment after the first `allow`
// predictions.
type failingPredictor struct {
	allow int
	seen  int
}

func (p *failingPredictor) Name() string { return "failing" }

func (p *failingPredictor) Predict(m *portmap.Mapping, e portmap.Experiment) (float64, error) {
	p.seen++
	if p.seen > p.allow {
		return 0, fmt.Errorf("induced failure")
	}
	return throughput.OfExperiment(m, e), nil
}

func (p *failingPredictor) PredictAll(m *portmap.Mapping, es []portmap.Experiment, out []float64) error {
	for i, e := range es {
		v, err := p.Predict(m, e)
		if err != nil {
			return err
		}
		out[i] = v
	}
	return nil
}

// TestEvaluateDeltaErrorInvalidatesPending: a failed EvaluateDelta must
// leave no pending delta, so a stray Commit cannot fold partial
// predictions into the state.
func TestEvaluateDeltaErrorInvalidatesPending(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	_, set := measuredSet(t, rng, 4, 3)
	pred := &failingPredictor{allow: 1 << 30}
	svc, err := NewService(set, ServiceOptions{Predictor: pred})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewService(set, ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := portmap.Random(rng, portmap.RandomOptions{NumInsts: 4, NumPorts: 3, MaxUops: 2})
	st, err := svc.NewState(m)
	if err != nil {
		t.Fatal(err)
	}
	pred.allow = pred.seen + 1 // next delta fails partway through
	m.SetUopCount(0, 0, m.Decomp[0][0].Count+1)
	if _, err := svc.EvaluateDelta(st, 0); err == nil {
		t.Fatal("induced failure did not surface")
	}
	m.SetUopCount(0, 0, m.Decomp[0][0].Count-1) // revert the edit
	st.Commit()                                 // must be a no-op
	want, err := plain.Evaluate(m)
	if err != nil {
		t.Fatal(err)
	}
	if st.Fitness() != want {
		t.Errorf("state corrupted after failed delta: %+v != %+v", st.Fitness(), want)
	}
	pred.allow = 1 << 30
	fit, err := svc.EvaluateDelta(st, 0) // the no-op edit: same mapping
	if err != nil {
		t.Fatal(err)
	}
	if fit != want {
		t.Errorf("recovered delta %+v != full %+v", fit, want)
	}
}
