package evo

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"pmevo/internal/portmap"
)

func mappingJSON(t *testing.T, m *portmap.Mapping) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// prePRGoldenMapping is the mapping the pre-island-model evo.Run found
// on the hiddenMapping experiment set under both golden configurations
// below, captured before the restructure. It is equivalent to the
// hidden mapping up to port permutation except for instruction 3
// (compacted to one µop by the volume objective).
func prePRGoldenMapping() *portmap.Mapping {
	m := portmap.NewMapping(4, 3)
	m.SetDecomp(0, []portmap.UopCount{{Ports: portmap.MakePortSet(0), Count: 1}})
	m.SetDecomp(1, []portmap.UopCount{{Ports: portmap.MakePortSet(0, 2), Count: 1}})
	m.SetDecomp(2, []portmap.UopCount{{Ports: portmap.MakePortSet(1), Count: 1}})
	m.SetDecomp(3, []portmap.UopCount{{Ports: portmap.MakePortSet(1), Count: 1}})
	return m
}

// historyDigest folds every bit of a run's per-generation history into
// one value, so a golden can pin the whole trajectory.
func historyDigest(h []GenStats) uint64 {
	d := uint64(0)
	for _, g := range h {
		d = portmap.CombineFingerprints(d, uint64(g.Generation))
		d = portmap.CombineFingerprints(d, math.Float64bits(g.BestError))
		d = portmap.CombineFingerprints(d, uint64(g.BestVolume))
		d = portmap.CombineFingerprints(d, math.Float64bits(g.MeanError))
	}
	return d
}

// TestGoldenSinglePopulation pins the Islands<=1 path bit-identical to
// earlier code: Best, Davg bits, volume, generation count, history and
// the evaluation count. The seed7/seed42 goldens were captured before
// the island model existed (prePRGoldenMapping). The six-instruction
// goldens were captured while single-population runs still had a loop
// of their own; a single island that re-ranked its survivors at the
// end, as the cross-island selection does, would hand back a different
// Best there.
func TestGoldenSinglePopulation(t *testing.T) {
	sixInsts := portmap.Random(rand.New(rand.NewSource(3)), portmap.RandomOptions{NumInsts: 6, NumPorts: 3, MaxUops: 2})
	sixOpts := func(localSearch bool) Options {
		return Options{PopulationSize: 60, MaxGenerations: 15, NumPorts: 3, VolumeObjective: true,
			Seed: 3, LocalSearch: localSearch}
	}
	smallGolden := func(seed int64, localSearch bool) Options {
		opts := smallOpts()
		opts.Seed = seed
		opts.LocalSearch = localSearch
		return opts
	}
	prePR := prePRGoldenMapping()
	cases := []struct {
		name        string
		hidden      *portmap.Mapping
		opts        Options
		want        *portmap.Mapping // compared as JSON bytes when set
		fingerprint uint64           // Best.FingerprintAll()
		davgBits    uint64
		volume      int
		generations int
		evals       int
		history     uint64
	}{
		{name: "seed7-localsearch", hidden: hiddenMapping(), opts: smallGolden(7, true), want: prePR,
			fingerprint: prePR.FingerprintAll(), davgBits: 0x3f9a41a41a41a41a, volume: 5,
			generations: 32, evals: 4955, history: 0x9eca098f2f115144},
		{name: "seed42-evolution-only", hidden: hiddenMapping(), opts: smallGolden(42, false), want: prePR,
			fingerprint: prePR.FingerprintAll(), davgBits: 0x3f9a41a41a41a41a, volume: 5,
			generations: 26, evals: 4050, history: 0xa2fedf97c494d9d1},
		{name: "six-insts-localsearch", hidden: sixInsts, opts: sixOpts(true),
			fingerprint: 0x28bee278f2b782dd, davgBits: 0x3fce8eb5b8284f52, volume: 7,
			generations: 15, evals: 974, history: 0x92dc39b453bbf991},
		{name: "six-insts-evolution-only", hidden: sixInsts, opts: sixOpts(false),
			fingerprint: 0x9ae1f97d0676c44, davgBits: 0x3fd18de5ab277f44, volume: 6,
			generations: 15, evals: 960, history: 0x92dc39b453bbf991},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(context.Background(), measuredSet(t, tc.hidden), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if tc.want != nil {
				if got, want := mappingJSON(t, res.Best), mappingJSON(t, tc.want); !bytes.Equal(got, want) {
					t.Errorf("mapping diverged from golden:\ngot:\n%s\nwant:\n%s", got, want)
				}
			}
			if fp := res.Best.FingerprintAll(); fp != tc.fingerprint {
				t.Errorf("Best fingerprint = %#x, want %#x\n%s", fp, tc.fingerprint, res.Best)
			}
			if bits := math.Float64bits(res.BestError); bits != tc.davgBits {
				t.Errorf("BestError bits = %#x, want %#x", bits, tc.davgBits)
			}
			if res.BestVolume != tc.volume {
				t.Errorf("BestVolume = %d, want %d", res.BestVolume, tc.volume)
			}
			if res.Generations != tc.generations {
				t.Errorf("Generations = %d, want %d", res.Generations, tc.generations)
			}
			if res.FitnessEvaluations != tc.evals {
				t.Errorf("FitnessEvaluations = %d, want %d", res.FitnessEvaluations, tc.evals)
			}
			if d := historyDigest(res.History); d != tc.history {
				t.Errorf("history digest = %#x, want %#x", d, tc.history)
			}
		})
	}
}

// TestIslandsDeterministicAcrossWorkers is the determinism contract:
// fixed Seed and fixed Islands must give bit-identical results and
// evaluation counts no matter how many goroutines schedule the islands
// or evaluate their batches. At Workers 8 each of the 4 islands fans
// its batches out over 2 goroutines.
func TestIslandsDeterministicAcrossWorkers(t *testing.T) {
	set := measuredSet(t, hiddenMapping())
	workerCounts := []int{1, 2, runtime.GOMAXPROCS(0), 8}
	var ref *Result
	var refJSON []byte
	for _, w := range workerCounts {
		opts := smallOpts()
		opts.Islands = 4
		opts.Workers = w
		res, err := Run(context.Background(), set, opts)
		if err != nil {
			t.Fatal(err)
		}
		j := mappingJSON(t, res.Best)
		if ref == nil {
			ref, refJSON = res, j
			continue
		}
		if !bytes.Equal(j, refJSON) {
			t.Errorf("Workers=%d mapping differs from Workers=%d:\n%s\nvs\n%s", w, workerCounts[0], j, refJSON)
		}
		if math.Float64bits(res.BestError) != math.Float64bits(ref.BestError) {
			t.Errorf("Workers=%d BestError %v != %v", w, res.BestError, ref.BestError)
		}
		if res.BestVolume != ref.BestVolume || res.Generations != ref.Generations {
			t.Errorf("Workers=%d (volume, gens) = (%d, %d), want (%d, %d)",
				w, res.BestVolume, res.Generations, ref.BestVolume, ref.Generations)
		}
		if !reflect.DeepEqual(res.History, ref.History) {
			t.Errorf("Workers=%d history differs", w)
		}
		if res.FitnessEvaluations != ref.FitnessEvaluations {
			t.Errorf("Workers=%d FitnessEvaluations %d != %d", w, res.FitnessEvaluations, ref.FitnessEvaluations)
		}
	}
}

// TestIslandsRecoverSmallMapping checks solution quality does not
// regress under sharding: the island run must still explain the
// measurements about as well as the single population does.
func TestIslandsRecoverSmallMapping(t *testing.T) {
	set := measuredSet(t, hiddenMapping())
	opts := smallOpts()
	opts.Islands = 3
	res, err := Run(context.Background(), set, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestError > 0.05 {
		t.Fatalf("best Davg = %g, want < 0.05\nmapping:\n%s", res.BestError, res.Best)
	}
	if err := res.Best.Validate(); err != nil {
		t.Fatalf("result mapping invalid: %v", err)
	}
	if res.Generations < 1 || len(res.History) != res.Generations {
		t.Errorf("merged history has %d entries for %d generations", len(res.History), res.Generations)
	}
	for g, h := range res.History {
		if h.Generation != g {
			t.Errorf("history[%d].Generation = %d", g, h.Generation)
		}
	}
}

// TestIslandsNoMigration exercises the migration-off path (fully
// independent islands, single epoch).
func TestIslandsNoMigration(t *testing.T) {
	set := measuredSet(t, hiddenMapping())
	opts := smallOpts()
	opts.Islands = 3
	opts.MigrationInterval = -1
	res, err := Run(context.Background(), set, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestError > 0.05 {
		t.Fatalf("best Davg = %g, want < 0.05", res.BestError)
	}
}

// TestOnGenerationCadence pins when OnGeneration fires: after every
// generation of a single island, at every migration barrier of several
// islands, and never for islands without migration. Progress reports
// (and the per-step timings built from them) depend on this cadence.
func TestOnGenerationCadence(t *testing.T) {
	set := measuredSet(t, hiddenMapping())
	const gens = 15
	every := make([]int, gens)
	for i := range every {
		every[i] = i + 1
	}
	cases := []struct {
		name              string
		islands, interval int
		want              []int
	}{
		{name: "zero islands", islands: 0, want: every},
		{name: "one island", islands: 1, want: every},
		{name: "three islands, default migration", islands: 3, want: []int{5, 10, 15}},
		{name: "three islands, migration off", islands: 3, interval: -1, want: nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{PopulationSize: 60, MaxGenerations: gens, NumPorts: 3, VolumeObjective: true,
				Seed: 3, Workers: 2, Islands: tc.islands, MigrationInterval: tc.interval}
			var got []int
			opts.OnGeneration = func(g int) { got = append(got, g) }
			res, err := Run(context.Background(), set, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Generations != gens {
				t.Fatalf("Generations = %d, want %d (the cadence needs the full budget)", res.Generations, gens)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("OnGeneration calls = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestPlanIslandsClamping covers the satellite contract: nonsensical
// option values are normalized, never errors.
func TestPlanIslandsClamping(t *testing.T) {
	base := Options{PopulationSize: 10}
	cases := []struct {
		name string
		mod  func(*Options)
		want islandPlan
	}{
		{
			name: "zero islands collapse to one",
			mod:  func(o *Options) { o.Islands = 0 },
			want: islandPlan{islands: 1, sizes: []int{10}, interval: 1},
		},
		{
			name: "negative islands collapse to one",
			mod:  func(o *Options) { o.Islands = -3 },
			want: islandPlan{islands: 1, sizes: []int{10}, interval: 1},
		},
		{
			name: "one island runs one-generation epochs and never migrates",
			mod:  func(o *Options) { o.Islands = 1; o.MigrationInterval = 7; o.MigrationCount = 3 },
			want: islandPlan{islands: 1, sizes: []int{10}, interval: 1},
		},
		{
			name: "islands capped so each holds two individuals",
			mod:  func(o *Options) { o.Islands = 100 },
			want: islandPlan{islands: 5, sizes: []int{2, 2, 2, 2, 2}, interval: 5, count: 1},
		},
		{
			name: "remainder spread over the first islands",
			mod:  func(o *Options) { o.Islands = 3 },
			want: islandPlan{islands: 3, sizes: []int{4, 3, 3}, interval: 5, count: 1},
		},
		{
			name: "migration count capped below smallest island",
			mod:  func(o *Options) { o.Islands = 3; o.MigrationCount = 99 },
			want: islandPlan{islands: 3, sizes: []int{4, 3, 3}, interval: 5, count: 2},
		},
		{
			name: "negative migration count disables migration",
			mod:  func(o *Options) { o.Islands = 2; o.MigrationCount = -1 },
			want: islandPlan{islands: 2, sizes: []int{5, 5}, interval: 0, count: 0},
		},
		{
			name: "negative interval disables migration",
			mod:  func(o *Options) { o.Islands = 2; o.MigrationInterval = -1 },
			want: islandPlan{islands: 2, sizes: []int{5, 5}, interval: 0, count: 0},
		},
		{
			name: "explicit interval and count pass through",
			mod:  func(o *Options) { o.Islands = 2; o.MigrationInterval = 7; o.MigrationCount = 3 },
			want: islandPlan{islands: 2, sizes: []int{5, 5}, interval: 7, count: 3},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := base
			tc.mod(&opts)
			got := planIslands(opts)
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("planIslands(%+v) = %+v, want %+v", opts, got, tc.want)
			}
			sum := 0
			for _, s := range got.sizes {
				sum += s
			}
			if sum != opts.PopulationSize {
				t.Errorf("island sizes %v sum to %d, want %d", got.sizes, sum, opts.PopulationSize)
			}
		})
	}
}

// testIsland builds an island whose population holds ports-distinct
// single-µop mappings with the given davg values, sorted best-first
// like a post-selection population.
func testIsland(idx int, davgs ...float64) *island {
	isl := &island{idx: idx}
	for i, d := range davgs {
		m := portmap.NewMapping(1, 8)
		m.SetDecomp(0, []portmap.UopCount{{Ports: portmap.MakePortSet(idx), Count: i + 1}})
		isl.pop = append(isl.pop, individual{m: m, davg: d, volume: i + 1})
	}
	return isl
}

// TestMigrateRingTopology pins the migration semantics: best-count
// emigrants travel k -> (k+1) mod N, replace the receiver's worst,
// are cloned (no shared mutable mappings), and are taken from the
// pre-migration populations regardless of application order.
func TestMigrateRingTopology(t *testing.T) {
	isls := []*island{
		testIsland(0, 0.10, 0.20, 0.30),
		testIsland(1, 0.11, 0.21, 0.31),
		testIsland(2, 0.12, 0.22, 0.32),
	}
	bestFP := make([]uint64, len(isls))
	bestPtr := make([]*portmap.Mapping, len(isls))
	for k, isl := range isls {
		bestFP[k] = isl.pop[0].m.FingerprintAll()
		bestPtr[k] = isl.pop[0].m
	}
	migrate(isls, 1, 1e-9)
	for k := range isls {
		dst := isls[(k+1)%len(isls)]
		got := dst.pop[len(dst.pop)-1]
		if got.m.FingerprintAll() != bestFP[k] {
			t.Errorf("island %d's worst slot does not hold island %d's pre-migration best", (k+1)%len(isls), k)
		}
		if got.m == bestPtr[k] {
			t.Errorf("island %d received an aliased mapping, want a clone", (k+1)%len(isls))
		}
		if got.davg != isls[k].pop[0].davg && k != (k+1)%len(isls) {
			// Source islands kept their best (emigration copies).
			t.Errorf("emigrant fitness not carried over: %v", got.davg)
		}
		if dst.pop[0].m.FingerprintAll() != bestFP[(k+1)%len(isls)] {
			t.Errorf("island %d lost its own best to migration", (k+1)%len(isls))
		}
	}

	// Multiple emigrants replace the worst slots in rank order.
	isls = []*island{
		testIsland(0, 0.10, 0.20, 0.30, 0.40),
		testIsland(1, 0.11, 0.21, 0.31, 0.41),
	}
	migrate(isls, 2, 1e-9)
	if isls[1].pop[3].davg != 0.10 || isls[1].pop[2].davg != 0.20 {
		t.Errorf("two-emigrant migration misplaced: tail davgs = %v, %v", isls[1].pop[3].davg, isls[1].pop[2].davg)
	}
	if isls[0].pop[3].davg != 0.11 || isls[0].pop[2].davg != 0.21 {
		t.Errorf("ring wrap misplaced: tail davgs = %v, %v", isls[0].pop[3].davg, isls[0].pop[2].davg)
	}
}

// TestMigrateUnconverges: a converged island that receives an immigrant
// with a different fitness goes back into the evolution loop.
func TestMigrateUnconverges(t *testing.T) {
	src := testIsland(0, 0.05, 0.06)
	dst := testIsland(1, 0.20, 0.20)
	dst.pop[1].davg = 0.20
	dst.pop[1].volume = dst.pop[0].volume // truly converged
	dst.converged = true
	migrate([]*island{src, dst}, 1, 1e-9)
	if dst.converged {
		t.Error("receiving a fitter immigrant should clear the converged flag")
	}
	// A converged island receiving its own fitness stays converged.
	src = testIsland(0, 0.20, 0.20)
	src.pop[1].volume = src.pop[0].volume
	dst = testIsland(1, 0.20, 0.20)
	dst.pop[1].volume = dst.pop[0].volume
	// Make volumes agree across islands too.
	src.pop[0].volume, src.pop[1].volume = 1, 1
	dst.pop[0].volume, dst.pop[1].volume = 1, 1
	dst.converged = true
	migrate([]*island{src, dst}, 1, 1e-9)
	if !dst.converged {
		t.Error("an immigrant with identical fitness must not clear the converged flag")
	}
}

// TestMergeIslandStats checks the history merge: per-generation best
// over islands with volume tie-breaks and population-weighted means,
// over islands of different lengths.
func TestMergeIslandStats(t *testing.T) {
	a := testIsland(0, 0.1, 0.2) // population 2
	a.gens = 2
	a.history = []GenStats{
		{Generation: 0, BestError: 0.5, BestVolume: 4, MeanError: 0.6},
		{Generation: 1, BestError: 0.3, BestVolume: 6, MeanError: 0.4},
	}
	b := testIsland(1, 0.1, 0.2, 0.3) // population 3
	b.gens = 1
	b.history = []GenStats{
		{Generation: 0, BestError: 0.5, BestVolume: 3, MeanError: 0.1},
	}
	gens, hist := mergeIslandStats([]*island{a, b})
	if gens != 2 {
		t.Fatalf("gens = %d, want 2", gens)
	}
	if len(hist) != 2 {
		t.Fatalf("merged history has %d entries, want 2", len(hist))
	}
	// Generation 0: equal errors, island b wins the volume tie-break;
	// mean = (0.6*2 + 0.1*3) / 5.
	if hist[0].BestError != 0.5 || hist[0].BestVolume != 3 {
		t.Errorf("gen 0 best = (%v, %d), want (0.5, 3)", hist[0].BestError, hist[0].BestVolume)
	}
	if want := (0.6*2 + 0.1*3) / 5; math.Abs(hist[0].MeanError-want) > 1e-15 {
		t.Errorf("gen 0 mean = %v, want %v", hist[0].MeanError, want)
	}
	// Generation 1: only island a ran it.
	if hist[1].BestError != 0.3 || hist[1].BestVolume != 6 || hist[1].MeanError != 0.4 {
		t.Errorf("gen 1 = %+v", hist[1])
	}

	// A single island's history comes back as is: weighting its mean by
	// its own size would round 0.1 to (0.1*3)/3 = 0.10000000000000002.
	solo := testIsland(0, 0.1, 0.2, 0.3)
	solo.gens = 1
	solo.history = []GenStats{{Generation: 0, BestError: 0.1, BestVolume: 1, MeanError: 0.1}}
	if gens, hist := mergeIslandStats([]*island{solo}); gens != 1 || !reflect.DeepEqual(hist, solo.history) {
		t.Errorf("single island: merged (%d, %+v), want (1, %+v)", gens, hist, solo.history)
	}
}

// TestFitnessEvaluationsRepeat pins the evaluation budget across
// identical runs. Evolution evaluates the initial population and every
// generation's p children, p·(generations+1) candidates; local search
// adds one full evaluation of its start and one per delta probe.
func TestFitnessEvaluationsRepeat(t *testing.T) {
	set := measuredSet(t, hiddenMapping())
	for _, tc := range []struct {
		localSearch bool
		evals       int
	}{{false, 960}, {true, 965}} {
		opts := Options{PopulationSize: 60, MaxGenerations: 15, NumPorts: 3, VolumeObjective: true,
			Seed: 3, LocalSearch: tc.localSearch}
		for rep := 0; rep < 4; rep++ {
			res, err := Run(context.Background(), set, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := opts.PopulationSize * (res.Generations + 1)
			if tc.localSearch {
				want += 1 + int(res.CacheStats.DeltaEvaluations)
			}
			if res.FitnessEvaluations != want || res.FitnessEvaluations != tc.evals {
				t.Errorf("local search %v, repeat %d: FitnessEvaluations = %d, want %d (budget formula %d)",
					tc.localSearch, rep, res.FitnessEvaluations, tc.evals, want)
			}
		}
	}
}
