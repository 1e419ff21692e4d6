package evo

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"pmevo/internal/engine"
	"pmevo/internal/exp"
	"pmevo/internal/portmap"
	"pmevo/internal/throughput"
)

// modelMeasurer produces noise-free measurements from a hidden mapping.
type modelMeasurer struct{ m *portmap.Mapping }

func (mm modelMeasurer) Measure(e portmap.Experiment) (float64, error) {
	return throughput.OfExperiment(mm.m, e), nil
}

// hiddenMapping builds the secret ground truth the EA must recover: a
// small machine with interesting structure (shared ports, a two-µop
// instruction).
func hiddenMapping() *portmap.Mapping {
	m := portmap.NewMapping(4, 3)
	m.SetDecomp(0, []portmap.UopCount{{Ports: portmap.MakePortSet(0), Count: 1}})
	m.SetDecomp(1, []portmap.UopCount{{Ports: portmap.MakePortSet(0, 1), Count: 1}})
	m.SetDecomp(2, []portmap.UopCount{{Ports: portmap.MakePortSet(2), Count: 1}})
	m.SetDecomp(3, []portmap.UopCount{
		{Ports: portmap.MakePortSet(0, 1), Count: 1},
		{Ports: portmap.MakePortSet(2), Count: 1},
	})
	return m
}

func measuredSet(t testing.TB, m *portmap.Mapping) *exp.Set {
	t.Helper()
	set, err := exp.GenerateAndMeasure(context.Background(), modelMeasurer{m}, m.NumInsts())
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func smallOpts() Options {
	return Options{
		PopulationSize:  150,
		MaxGenerations:  40,
		NumPorts:        3,
		LocalSearch:     true,
		VolumeObjective: true,
		Seed:            7,
		Workers:         2,
	}
}

// TestRecoversSmallMapping is the central correctness test: on a small
// hidden machine with noise-free measurements, the EA must find a
// mapping that explains the measured experiments well. Note that exact
// recovery is not expected: the two-objective fitness deliberately
// trades the last bit of accuracy for compactness (the paper's inferred
// SKL mapping likewise has 14.7% MAPE, §5.3.1), and port identities are
// only determined up to permutation.
func TestRecoversSmallMapping(t *testing.T) {
	hidden := hiddenMapping()
	set := measuredSet(t, hidden)
	res, err := Run(context.Background(), set, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.BestError > 0.05 {
		t.Fatalf("best Davg = %g, want < 0.05\nmapping:\n%s", res.BestError, res.Best)
	}
	if err := res.Best.Validate(); err != nil {
		t.Fatalf("result mapping invalid: %v", err)
	}
	// The inferred mapping must generalize to experiments NOT in the
	// training set: random multisets of size 3.
	rng := rand.New(rand.NewSource(3))
	worst, sum := 0.0, 0.0
	const trials = 200
	for i := 0; i < trials; i++ {
		e := portmap.RandomExperiment(rng, hidden.NumInsts(), 3)
		want := throughput.OfExperiment(hidden, e)
		got := throughput.OfExperiment(res.Best, e)
		relErr := math.Abs(got-want) / want
		sum += relErr
		if relErr > worst {
			worst = relErr
		}
	}
	if mean := sum / trials; mean > 0.10 {
		t.Errorf("mean generalization error %g > 10%%", mean)
	}
	if worst > 0.40 {
		t.Errorf("worst generalization error %g > 40%%", worst)
	}
}

func TestRunValidation(t *testing.T) {
	set := measuredSet(t, hiddenMapping())
	cases := []Options{
		{PopulationSize: 1, MaxGenerations: 5, NumPorts: 3},
		{PopulationSize: 10, MaxGenerations: 0, NumPorts: 3},
		{PopulationSize: 10, MaxGenerations: 5, NumPorts: 0},
		{PopulationSize: 10, MaxGenerations: 5, NumPorts: 100},
	}
	for i, o := range cases {
		if _, err := Run(context.Background(), set, o); err == nil {
			t.Errorf("case %d: invalid options accepted", i)
		}
	}
	if _, err := Run(context.Background(), nil, smallOpts()); err == nil {
		t.Error("nil set accepted")
	}
	if _, err := Run(context.Background(), &exp.Set{NumInsts: 2}, smallOpts()); err == nil {
		t.Error("set without measurements accepted")
	}
	for _, tp := range []float64{-1, math.NaN(), math.Inf(1)} {
		bad := &exp.Set{
			NumInsts:   1,
			Individual: []float64{1},
			Measurements: []exp.Measurement{
				{Exp: portmap.Experiment{{Inst: 0, Count: 1}}, Throughput: tp},
			},
		}
		if _, err := Run(context.Background(), bad, smallOpts()); err == nil {
			t.Errorf("measured throughput %g accepted", tp)
		}
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	set := measuredSet(t, hiddenMapping())
	opts := smallOpts()
	opts.MaxGenerations = 10
	r1, err := Run(context.Background(), set, opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(context.Background(), set, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Best.Equal(r2.Best) {
		t.Error("same seed produced different mappings")
	}
	if r1.BestError != r2.BestError || r1.Generations != r2.Generations {
		t.Error("same seed produced different run statistics")
	}
}

func TestDifferentSeedsExploreDifferently(t *testing.T) {
	set := measuredSet(t, hiddenMapping())
	opts := smallOpts()
	opts.MaxGenerations = 3 // early stop: unlikely to agree already
	opts.LocalSearch = false
	r1, _ := Run(context.Background(), set, opts)
	opts.Seed = 99
	r2, _ := Run(context.Background(), set, opts)
	if r1.Best.Equal(r2.Best) {
		t.Log("warning: different seeds produced identical early mappings (possible but unlikely)")
	}
}

func TestHistoryMonotoneBestError(t *testing.T) {
	set := measuredSet(t, hiddenMapping())
	opts := smallOpts()
	opts.LocalSearch = false
	res, err := Run(context.Background(), set, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) == 0 {
		t.Fatal("no history recorded")
	}
	// The best error may fluctuate slightly because selection is on the
	// scalarized two-objective fitness, but it must not degrade overall.
	first := res.History[0].BestError
	last := res.History[len(res.History)-1].BestError
	if last > first+1e-9 {
		t.Errorf("best error degraded: %g -> %g", first, last)
	}
}

func TestLocalSearchImprovesOrKeeps(t *testing.T) {
	set := measuredSet(t, hiddenMapping())
	opts := smallOpts()
	opts.LocalSearch = false
	opts.MaxGenerations = 6
	noLS, err := Run(context.Background(), set, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.LocalSearch = true
	withLS, err := Run(context.Background(), set, opts)
	if err != nil {
		t.Fatal(err)
	}
	if withLS.BestError > noLS.BestError+1e-9 {
		t.Errorf("local search degraded Davg: %g -> %g", noLS.BestError, withLS.BestError)
	}
}

func TestVolumeObjectiveYieldsCompactMappings(t *testing.T) {
	set := measuredSet(t, hiddenMapping())

	opts := smallOpts()
	opts.Seed = 11
	withV, err := Run(context.Background(), set, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.VolumeObjective = false
	withoutV, err := Run(context.Background(), set, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Both should fit well; the volume-aware run must not be larger.
	if withV.BestVolume > withoutV.BestVolume {
		t.Errorf("volume objective produced larger mapping: %d vs %d",
			withV.BestVolume, withoutV.BestVolume)
	}
}

func TestRecombinePreservesInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var sc genScratch
	c1, c2 := portmap.NewMapping(6, 4), portmap.NewMapping(6, 4)
	for trial := 0; trial < 100; trial++ {
		a := portmap.Random(rng, portmap.RandomOptions{NumInsts: 6, NumPorts: 4})
		b := portmap.Random(rng, portmap.RandomOptions{NumInsts: 6, NumPorts: 4})
		recombine(rng, a, b, c1, c2, &sc) // children recycled from the previous trial
		if err := c1.Validate(); err != nil {
			t.Fatalf("child1 invalid: %v", err)
		}
		if err := c2.Validate(); err != nil {
			t.Fatalf("child2 invalid: %v", err)
		}
		// Mass conservation: except for the non-empty repair case, the
		// combined µop multiset of the children equals the parents'.
		for i := 0; i < 6; i++ {
			parentCount := a.UopCountOf(i) + b.UopCountOf(i)
			childCount := c1.UopCountOf(i) + c2.UopCountOf(i)
			// The repair path can add at most 1 per child.
			if childCount < parentCount || childCount > parentCount+2 {
				t.Fatalf("inst %d: children have %d µops, parents %d", i, childCount, parentCount)
			}
		}
	}
}

func TestMutationAblationRuns(t *testing.T) {
	set := measuredSet(t, hiddenMapping())
	opts := smallOpts()
	opts.MutationRate = 0.2
	opts.MaxGenerations = 8
	res, err := Run(context.Background(), set, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Best.Validate(); err != nil {
		t.Fatalf("mutated run produced invalid mapping: %v", err)
	}
}

func TestConvergenceStopsEarly(t *testing.T) {
	// A single instruction on one port converges almost immediately; the
	// run must stop well before MaxGenerations.
	m := portmap.NewMapping(1, 2)
	m.SetDecomp(0, []portmap.UopCount{{Ports: portmap.MakePortSet(0), Count: 1}})
	set := measuredSet(t, m)
	opts := smallOpts()
	opts.NumPorts = 2
	opts.MaxGenerations = 500
	res, err := Run(context.Background(), set, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generations >= 500 {
		t.Errorf("run did not converge early (%d generations)", res.Generations)
	}
	if res.BestError > 1e-6 {
		t.Errorf("trivial problem not solved: Davg = %g", res.BestError)
	}
}

func TestFitnessEvaluationsCounted(t *testing.T) {
	set := measuredSet(t, hiddenMapping())
	opts := smallOpts()
	opts.MaxGenerations = 5
	res, err := Run(context.Background(), set, opts)
	if err != nil {
		t.Fatal(err)
	}
	// At least the initial population and one generation of children.
	if res.FitnessEvaluations < opts.PopulationSize*2 {
		t.Errorf("FitnessEvaluations = %d, want >= %d",
			res.FitnessEvaluations, opts.PopulationSize*2)
	}
}

// TestWarmStartFromSeedMapping exercises the SeedMappings extension:
// warm-starting from the (hidden) truth must immediately reach Davg 0,
// and warm-starting from a perturbed mapping must do no worse than the
// perturbed mapping itself (the OSACA-style refinement use case, §6).
func TestWarmStartFromSeedMapping(t *testing.T) {
	hidden := hiddenMapping()
	set := measuredSet(t, hidden)

	opts := smallOpts()
	opts.MaxGenerations = 5
	// Refinement runs care about fit: lean the scalarization toward
	// accuracy so the compactness objective cannot displace a perfect
	// seed (with equal weights, a compact approximation may legitimately
	// outrank it — that is the paper's trade-off, not a bug).
	opts.AccuracyWeight = 10
	opts.SeedMappings = []*portmap.Mapping{hidden}
	res, err := Run(context.Background(), set, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestError > 1e-9 {
		t.Errorf("warm start from truth: Davg = %g, want 0", res.BestError)
	}

	// Perturb the truth: drop a port from the two-port µop of I1.
	perturbed := hidden.Clone()
	perturbed.SetDecomp(1, []portmap.UopCount{{Ports: portmap.MakePortSet(0), Count: 1}})
	var te throughput.Evaluator
	perturbedErr := 0.0
	for _, m := range set.Measurements {
		pred := te.ThroughputOf(perturbed, m.Exp)
		perturbedErr += abs(pred-m.Throughput) / m.Throughput
	}
	perturbedErr /= float64(len(set.Measurements))

	opts.SeedMappings = []*portmap.Mapping{perturbed}
	opts.MaxGenerations = 30
	res, err = Run(context.Background(), set, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestError > perturbedErr {
		t.Errorf("refinement worse than its seed: %g vs %g", res.BestError, perturbedErr)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestWarmStartValidation(t *testing.T) {
	set := measuredSet(t, hiddenMapping())
	opts := smallOpts()
	wrong := portmap.NewMapping(99, 3)
	opts.SeedMappings = []*portmap.Mapping{wrong}
	if _, err := Run(context.Background(), set, opts); err == nil {
		t.Error("mismatched seed mapping accepted")
	}
	invalid := portmap.NewMapping(4, 3) // empty decompositions
	opts.SeedMappings = []*portmap.Mapping{invalid}
	if _, err := Run(context.Background(), set, opts); err == nil {
		t.Error("invalid seed mapping accepted")
	}
}

// TestSelectBestOrdering exercises the scalarization in isolation.
func TestSelectBestOrdering(t *testing.T) {
	mk := func(d float64, v int) individual {
		return individual{m: nil, davg: d, volume: v}
	}
	pop := []individual{
		mk(0.5, 10), // poor error
		mk(0.1, 50), // good error, large volume
		mk(0.1, 10), // good error, small volume: must win
		mk(0.3, 20),
	}
	selectBest(&popByKey{}, pop, true, 1)
	if pop[0].davg != 0.1 || pop[0].volume != 10 {
		t.Errorf("best = (%g, %d), want (0.1, 10)", pop[0].davg, pop[0].volume)
	}
	// Without the volume objective, 0.1/50 and 0.1/10 tie on error and
	// the tie-break prefers the smaller volume.
	pop2 := []individual{mk(0.1, 50), mk(0.1, 10)}
	selectBest(&popByKey{}, pop2, false, 1)
	if pop2[0].volume != 10 {
		t.Errorf("tie-break failed: volume %d", pop2[0].volume)
	}
	// A high accuracy weight outranks compactness: (0.1, 50) must beat
	// (0.2, 10).
	pop3 := []individual{mk(0.2, 10), mk(0.1, 50)}
	selectBest(&popByKey{}, pop3, true, 100)
	if pop3[0].davg != 0.1 {
		t.Errorf("accuracy weight ignored: best davg = %g", pop3[0].davg)
	}
}

// TestAccuracyWeightEscapesCompactnessTrap reproduces the pathology of
// equal-weight scalarization on very small problems — all seeds converge
// to a compact mapping with ~31% Davg on this 2-port machine — and shows
// that the AccuracyWeight extension escapes it.
func TestAccuracyWeightEscapesCompactnessTrap(t *testing.T) {
	hidden := portmap.NewMapping(3, 2)
	hidden.SetDecomp(0, []portmap.UopCount{{Ports: portmap.MakePortSet(0), Count: 1}})
	hidden.SetDecomp(1, []portmap.UopCount{{Ports: portmap.MakePortSet(0, 1), Count: 1}})
	hidden.SetDecomp(2, []portmap.UopCount{{Ports: portmap.MakePortSet(1), Count: 2}})
	set := measuredSet(t, hidden)

	opts := smallOpts()
	opts.NumPorts = 2
	equal, err := Run(context.Background(), set, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.AccuracyWeight = 10
	weighted, err := Run(context.Background(), set, opts)
	if err != nil {
		t.Fatal(err)
	}
	if weighted.BestError >= equal.BestError {
		t.Errorf("accuracy weight did not improve Davg: %g vs %g",
			weighted.BestError, equal.BestError)
	}
	if weighted.BestError > 0.02 {
		t.Errorf("weighted run still inaccurate: Davg = %g", weighted.BestError)
	}
}

// TestCacheOnOffBitIdentical is the golden pin for delta local search:
// a fixed-seed Run must return a bit-identical result — same Best
// mapping, same Davg, same volume, same per-generation history — with
// local-search probes scored by EvaluateDelta (DisableCache off) and by
// full evaluations (on). Exercised across several seeds and with local
// search on and off.
func TestCacheOnOffBitIdentical(t *testing.T) {
	set := measuredSet(t, hiddenMapping())
	for _, localSearch := range []bool{true, false} {
		for _, seed := range []int64{1, 7, 42} {
			opts := smallOpts()
			opts.Seed = seed
			opts.LocalSearch = localSearch
			opts.MaxGenerations = 12

			opts.DisableCache = false
			cached, err := Run(context.Background(), set, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.DisableCache = true
			plain, err := Run(context.Background(), set, opts)
			if err != nil {
				t.Fatal(err)
			}

			tag := "localSearch=" + map[bool]string{true: "on", false: "off"}[localSearch]
			if !cached.Best.Equal(plain.Best) {
				t.Errorf("seed %d %s: Best differs with caching on/off:\n%s\nvs\n%s",
					seed, tag, cached.Best, plain.Best)
			}
			if cached.BestError != plain.BestError {
				t.Errorf("seed %d %s: BestError %v (cached) != %v (plain)",
					seed, tag, cached.BestError, plain.BestError)
			}
			if cached.BestVolume != plain.BestVolume {
				t.Errorf("seed %d %s: BestVolume %d != %d", seed, tag, cached.BestVolume, plain.BestVolume)
			}
			if cached.Generations != plain.Generations {
				t.Errorf("seed %d %s: Generations %d != %d", seed, tag, cached.Generations, plain.Generations)
			}
			if len(cached.History) != len(plain.History) {
				t.Fatalf("seed %d %s: history lengths differ: %d vs %d",
					seed, tag, len(cached.History), len(plain.History))
			}
			for g := range cached.History {
				if cached.History[g] != plain.History[g] {
					t.Errorf("seed %d %s: generation %d stats differ: %+v vs %+v",
						seed, tag, g, cached.History[g], plain.History[g])
				}
			}
			// The cached run must actually have scored probes by delta,
			// and the plain run must not have. Evolution evaluates every
			// candidate of every generation either way.
			if ps := plain.CacheStats; ps.DeltaEvaluations != 0 {
				t.Errorf("seed %d %s: DisableCache run used delta evaluation: %+v", seed, tag, ps)
			}
			if localSearch && cached.CacheStats.DeltaEvaluations == 0 {
				t.Errorf("seed %d %s: local search performed no delta evaluations", seed, tag)
			}
			if !localSearch {
				if all := opts.PopulationSize * (plain.Generations + 1); plain.FitnessEvaluations != all {
					t.Errorf("seed %d %s: DisableCache run evaluated %d candidates, want all %d",
						seed, tag, plain.FitnessEvaluations, all)
				}
				if cached.FitnessEvaluations != plain.FitnessEvaluations {
					t.Errorf("seed %d %s: runs evaluated %d (cached) and %d (plain) candidates",
						seed, tag, cached.FitnessEvaluations, plain.FitnessEvaluations)
				}
			}
		}
	}
}

// TestCacheOnOffBitIdenticalGenericEngine pins the same property through
// a generic (non-fast-path) predictor, where delta local search applies
// just the same.
func TestCacheOnOffBitIdenticalGenericEngine(t *testing.T) {
	set := measuredSet(t, hiddenMapping())
	eng, err := engine.ByName("union")
	if err != nil {
		t.Fatal(err)
	}
	opts := smallOpts()
	opts.MaxGenerations = 6
	opts.Engine = eng
	opts.DisableCache = false
	cached, err := Run(context.Background(), set, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.DisableCache = true
	plain, err := Run(context.Background(), set, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !cached.Best.Equal(plain.Best) || cached.BestError != plain.BestError {
		t.Errorf("generic engine: results differ with caching on/off: %v vs %v",
			cached.BestError, plain.BestError)
	}
}
