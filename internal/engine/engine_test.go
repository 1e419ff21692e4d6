package engine

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"pmevo/internal/exp"
	"pmevo/internal/portmap"
	"pmevo/internal/throughput"
)

// randomWorkload builds a random mapping and a batch of random
// experiments over it.
func randomWorkload(rng *rand.Rand, numInsts, numPorts, numExps, maxLen int) (*portmap.Mapping, []portmap.Experiment) {
	m := portmap.Random(rng, portmap.RandomOptions{NumInsts: numInsts, NumPorts: numPorts, MaxUops: 3})
	es := make([]portmap.Experiment, numExps)
	for i := range es {
		es[i] = portmap.RandomExperiment(rng, numInsts, 1+rng.Intn(maxLen))
	}
	return m, es
}

// TestBatchedAgreesWithSingle is the central batching property: for
// every engine, PredictAll must agree exactly with per-experiment
// Predict on random mappings and experiments.
func TestBatchedAgreesWithSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		m, es := randomWorkload(rng, 20, 3+rng.Intn(6), 30, 5)
		for _, name := range Names() {
			eng, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			batched := make([]float64, len(es))
			if err := eng.PredictAll(m, es, batched); err != nil {
				t.Fatalf("%s: PredictAll: %v", name, err)
			}
			for i, e := range es {
				single, err := eng.Predict(m, e)
				if err != nil {
					t.Fatalf("%s: Predict: %v", name, err)
				}
				if single != batched[i] {
					t.Fatalf("%s: trial %d experiment %d: Predict %g != PredictAll %g",
						name, trial, i, single, batched[i])
				}
			}
		}
	}
}

// TestEnginesAgreeWithLPReference property-tests every engine against
// the LP reference on random mappings (the Definition 3/Equation 1
// equivalence).
func TestEnginesAgreeWithLPReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lp, err := ByName("lp")
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 25; trial++ {
		m, es := randomWorkload(rng, 16, 3+rng.Intn(5), 12, 4)
		want := make([]float64, len(es))
		if err := lp.PredictAll(m, es, want); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"bottleneck", "union", "naive"} {
			eng, _ := ByName(name)
			got := make([]float64, len(es))
			if err := eng.PredictAll(m, es, got); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i := range es {
				if math.Abs(got[i]-want[i]) > 1e-9 {
					t.Fatalf("%s: trial %d experiment %d: %g, LP reference %g",
						name, trial, i, got[i], want[i])
				}
			}
		}
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("no-such-engine"); err == nil {
		t.Error("unknown engine accepted")
	}
	def, err := ByName("")
	if err != nil {
		t.Fatal(err)
	}
	if def.Name() != Default().Name() {
		t.Errorf("empty name resolved to %q, want default %q", def.Name(), Default().Name())
	}
	for _, name := range Names() {
		eng, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if eng.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, eng.Name())
		}
	}
}

func TestPredictValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, _ := randomWorkload(rng, 4, 3, 1, 1)
	bad := portmap.Experiment{{Inst: 99, Count: 1}}
	for _, name := range Names() {
		eng, _ := ByName(name)
		if _, err := eng.Predict(m, bad); err == nil {
			t.Errorf("%s: out-of-range instruction accepted", name)
		}
		if err := eng.PredictAll(m, []portmap.Experiment{bad}, make([]float64, 1)); err == nil {
			t.Errorf("%s: out-of-range instruction accepted in batch", name)
		}
		if err := eng.PredictAll(m, make([]portmap.Experiment, 2), make([]float64, 1)); err == nil {
			t.Errorf("%s: mismatched output length accepted", name)
		}
	}
}

// measuredSet builds a measurement set from a hidden mapping with
// noise-free model measurements.
func measuredSet(t *testing.T, rng *rand.Rand, numInsts, numPorts int) (*portmap.Mapping, *exp.Set) {
	t.Helper()
	hidden := portmap.Random(rng, portmap.RandomOptions{NumInsts: numInsts, NumPorts: numPorts, MaxUops: 2})
	set, err := exp.GenerateAndMeasure(context.Background(), oracle{hidden}, numInsts)
	if err != nil {
		t.Fatal(err)
	}
	return hidden, set
}

type oracle struct{ m *portmap.Mapping }

func (o oracle) Measure(e portmap.Experiment) (float64, error) {
	return throughput.OfExperiment(o.m, e), nil
}

// TestServiceMatchesDirectDavg checks the pre-flattened batched service
// against a direct, allocating computation of Davg.
func TestServiceMatchesDirectDavg(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	_, set := measuredSet(t, rng, 10, 4)
	svc, err := NewService(set, ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if svc.NumExperiments() != len(set.Measurements) {
		t.Fatalf("NumExperiments = %d, want %d", svc.NumExperiments(), len(set.Measurements))
	}
	ms := make([]*portmap.Mapping, 16)
	for i := range ms {
		ms[i] = portmap.Random(rng, portmap.RandomOptions{NumInsts: 10, NumPorts: 4, MaxUops: 3})
	}
	fits := make([]Fitness, len(ms))
	if err := svc.EvaluateAll(context.Background(), ms, fits); err != nil {
		t.Fatal(err)
	}
	for i, m := range ms {
		want := 0.0
		for _, meas := range set.Measurements {
			pred := throughput.OfExperiment(m, meas.Exp)
			want += math.Abs(pred-meas.Throughput) / meas.Throughput
		}
		want /= float64(len(set.Measurements))
		if fits[i].Davg != want {
			t.Errorf("mapping %d: Davg %g, direct %g", i, fits[i].Davg, want)
		}
		if fits[i].Volume != m.Volume() {
			t.Errorf("mapping %d: Volume %d, want %d", i, fits[i].Volume, m.Volume())
		}
		single, err := svc.Evaluate(m)
		if err != nil {
			t.Fatal(err)
		}
		if single != fits[i] {
			t.Errorf("mapping %d: Evaluate %+v != EvaluateAll %+v", i, single, fits[i])
		}
	}
	if got := svc.Evaluations(); got != len(ms)*2 {
		t.Errorf("Evaluations = %d, want %d", got, len(ms)*2)
	}
}

// TestServiceGenericEngineAgrees runs the service through the generic
// Predictor path (LP engine) and compares with the fast path.
func TestServiceGenericEngineAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	_, set := measuredSet(t, rng, 8, 3)
	fast, err := NewService(set, ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lp, _ := ByName("lp")
	ref, err := NewService(set, ServiceOptions{Predictor: lp})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 8; trial++ {
		m := portmap.Random(rng, portmap.RandomOptions{NumInsts: 8, NumPorts: 3, MaxUops: 2})
		f1, err := fast.Evaluate(m)
		if err != nil {
			t.Fatal(err)
		}
		f2, err := ref.Evaluate(m)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(f1.Davg-f2.Davg) > 1e-9 || f1.Volume != f2.Volume {
			t.Errorf("trial %d: bottleneck %+v vs lp %+v", trial, f1, f2)
		}
	}
}

func TestServiceValidation(t *testing.T) {
	if _, err := NewService(nil, ServiceOptions{}); err == nil {
		t.Error("nil set accepted")
	}
	if _, err := NewService(&exp.Set{NumInsts: 2}, ServiceOptions{}); err == nil {
		t.Error("set without measurements accepted")
	}
	for _, tp := range []float64{-1, math.NaN(), math.Inf(1)} {
		bad := &exp.Set{
			NumInsts:     1,
			Individual:   []float64{1},
			Measurements: []exp.Measurement{{Exp: portmap.Experiment{{Inst: 0, Count: 1}}, Throughput: tp}},
		}
		if _, err := NewService(bad, ServiceOptions{}); err == nil {
			t.Errorf("throughput %g accepted", tp)
		}
	}
	oob := &exp.Set{
		NumInsts:     1,
		Individual:   []float64{1},
		Measurements: []exp.Measurement{{Exp: portmap.Experiment{{Inst: 5, Count: 1}}, Throughput: 1}},
	}
	if _, err := NewService(oob, ServiceOptions{}); err == nil {
		t.Error("out-of-range instruction accepted")
	}
}

// TestUndersizedMappingRejected: a mapping covering fewer instructions
// than the experiment set references must be rejected up front, with
// NewState's error, by every entry point on both the fast and the
// generic path — never indexed past its decompositions (on the fast
// path, EvaluateAll's pool goroutines could not recover that panic).
func TestUndersizedMappingRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	_, set := measuredSet(t, rng, 10, 4)
	small := portmap.Random(rng, portmap.RandomOptions{NumInsts: 6, NumPorts: 4, MaxUops: 2})
	full := portmap.Random(rng, portmap.RandomOptions{NumInsts: 10, NumPorts: 4, MaxUops: 2})
	batch := []*portmap.Mapping{full, full, small, full}
	entryPoints := []struct {
		name string
		call func(svc *Service) error
	}{
		{"Evaluate", func(svc *Service) error { _, err := svc.Evaluate(small); return err }},
		{"EvaluateAll", func(svc *Service) error {
			return svc.EvaluateAll(context.Background(), batch, make([]Fitness, len(batch)))
		}},
		{"NewState", func(svc *Service) error { _, err := svc.NewState(small); return err }},
	}
	for _, path := range []struct {
		name string
		opts ServiceOptions
	}{{"fast", ServiceOptions{Workers: 4}}, {"generic", ServiceOptions{Workers: 4, Predictor: Default()}}} {
		for _, ep := range entryPoints {
			t.Run(path.name+"/"+ep.name, func(t *testing.T) {
				svc, err := NewService(set, path.opts)
				if err != nil {
					t.Fatal(err)
				}
				err = ep.call(svc)
				const want = "engine: mapping covers 6 instructions, experiment set needs 10"
				if err == nil || err.Error() != want {
					t.Fatalf("error = %v, want %q", err, want)
				}
				if svc.Evaluations() != 0 {
					t.Errorf("rejected call counted %d evaluations", svc.Evaluations())
				}
			})
		}
	}
}

// TestConcurrentEngineUse exercises the predictors and the service from
// many goroutines at once; run under -race it verifies the concurrency
// contract of the package.
func TestConcurrentEngineUse(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	m, es := randomWorkload(rng, 12, 4, 40, 4)
	_, set := measuredSet(t, rng, 8, 3)
	svc, err := NewService(set, ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	candidates := make([]*portmap.Mapping, 8)
	for i := range candidates {
		candidates[i] = portmap.Random(rng, portmap.RandomOptions{NumInsts: 8, NumPorts: 3, MaxUops: 2})
	}

	eng := Default()
	want := make([]float64, len(es))
	if err := eng.PredictAll(m, es, want); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				e := es[(g*7+iter)%len(es)]
				v, err := eng.Predict(m, e)
				if err != nil {
					t.Errorf("Predict: %v", err)
					return
				}
				if v != want[(g*7+iter)%len(es)] {
					t.Errorf("concurrent Predict diverged: %g", v)
					return
				}
				if _, err := svc.Evaluate(candidates[(g+iter)%len(candidates)]); err != nil {
					t.Errorf("Evaluate: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestForEachWorker(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100} {
		for _, workers := range []int{0, 1, 3, 200} {
			hits := make([]int32, n)
			var mu sync.Mutex
			maxWorker := -1
			ForEachWorker(n, workers, func(w, i int) {
				hits[i]++
				mu.Lock()
				if w > maxWorker {
					maxWorker = w
				}
				mu.Unlock()
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, h)
				}
			}
			if n > 0 && maxWorker >= Workers(workers) {
				t.Fatalf("worker index %d out of range", maxWorker)
			}
		}
	}
}
