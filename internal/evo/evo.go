// Package evo implements the evolutionary algorithm of paper §4.4 that
// searches for a port mapping explaining a set of measured throughputs.
//
// The algorithm follows the paper's Algorithm 1:
//
//	initialize population randomly
//	while not done:
//	    apply evolutionary operators   (binary recombination, no mutation)
//	    evaluate fitness               (bottleneck simulation, §4.5)
//	    select new population          (best p of 2p)
//	perform local search               (greedy hill climbing on µop counts)
//	return fittest individual
//
// Fitness scalarizes two objectives (a priori scalarization of the
// multiobjective problem): the average relative prediction error Davg and
// the µop volume V, each affinely normalized to [0, 1000] over the
// current combined population.
//
// Per the paper, there is no mutation operator by default: experiments
// showed little benefit over spending the same fitness evaluations on a
// larger population. A mutation rate is retained as an explicit ablation
// knob.
//
// Fitness evaluation — the dominant cost of the algorithm — is delegated
// to internal/engine's batched, parallel fitness service; this package
// contains no worker-pool code of its own beyond distributing islands
// over engine.ForEachWorker.
//
// # One generation loop, one or more islands
//
// Every run goes through the same island-model loop. Options.Islands
// shards the population into sub-populations ("islands") that run the
// algorithm above in epochs, concurrently, each on one goroutine at a
// time. Between epochs the coordinator checkpoints, reports progress
// through Options.OnGeneration and, with several islands, migrates on a
// ring: every Options.MigrationInterval generations island k's best
// Options.MigrationCount individuals (cloned) replace island
// (k+1 mod N)'s worst.
//
// A single island is the paper's single population. It draws from the
// master RNG stream seeded by Options.Seed and runs epochs of one
// generation. Several islands each draw from their own stream, split
// deterministically from the master stream. Every island evaluates each
// generation's batch through one shared engine.Service, which splits
// Options.Workers evenly between the islands that run at once: a single
// island fans its batch out over all of them, and more islands than
// workers evaluate serially. Every child of every generation is
// evaluated, so an island of p individuals that runs g generations
// evaluates exactly p·(g+1) candidates. Because islands only interact
// at epoch barriers (migration is applied serially, collect-then-apply),
// a fixed Seed and a fixed Islands produce bit-identical results and
// evaluation counts regardless of Workers or goroutine scheduling.
package evo

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"pmevo/internal/engine"
	"pmevo/internal/exp"
	"pmevo/internal/portmap"
	"pmevo/internal/runctrl"
)

// Typed interruption errors, re-exported from internal/runctrl so
// consumers can errors.Is against the evo package directly. A Run that
// returns one of these still returns a non-nil *Result when any
// generation completed: the best-so-far partial result, with History
// and Generations reflecting the work actually done.
var (
	ErrCanceled = runctrl.ErrCanceled
	ErrDeadline = runctrl.ErrDeadline
)

// Interrupted reports whether err is a cancellation/deadline
// interruption (and a partial Result may accompany it).
func Interrupted(err error) bool { return runctrl.Interrupted(err) }

// Options configures the evolutionary algorithm.
type Options struct {
	// PopulationSize is p: each generation keeps the best p of 2p
	// individuals. The paper's evaluation uses 100,000; scaled-down runs
	// converge on small ISAs with far less.
	PopulationSize int
	// MaxGenerations bounds the evolution loop.
	MaxGenerations int
	// NumPorts is the |P| hyperparameter given by the user (Figure 5:
	// "# ports").
	NumPorts int
	// MutationRate is the per-instruction probability of re-randomizing
	// a child's decomposition. The paper's design uses 0; non-zero
	// values exist for the ablation study.
	MutationRate float64
	// LocalSearch enables the final greedy hill-climbing phase.
	LocalSearch bool
	// VolumeObjective includes the µop volume V in the fitness. The
	// paper always uses it; disabling it is an ablation that yields less
	// compact, harder-to-interpret mappings.
	VolumeObjective bool
	// AccuracyWeight scales the normalized accuracy objective relative
	// to the volume objective (the paper's scalarization weights both
	// equally; values ≤ 0 mean 1). On very small problems the
	// equal-weight scalarization can prefer compact-but-wrong mappings;
	// raising this weight is an extension knob that trades compactness
	// for accuracy (see the ablation tests).
	AccuracyWeight float64
	// Workers is the number of parallel fitness evaluation goroutines
	// (0: GOMAXPROCS). Workers are shared across islands, not
	// per-island: the islands run on min(Workers, Islands) goroutines,
	// and each fans its generation's batch out over its share,
	// max(1, Workers/min(Workers, Islands)) goroutines. A single island
	// uses all of them; more islands than Workers evaluate serially.
	// Total parallelism never exceeds Workers, and the value never
	// affects results (see Islands).
	Workers int
	// Islands shards the population into this many sub-populations of
	// PopulationSize/Islands individuals (remainder spread over the
	// first islands) that evolve concurrently and exchange individuals
	// on a ring every MigrationInterval generations. Every value runs
	// the same generation loop. A single island (Islands <= 1) is the
	// paper's single population: it draws from Seed's stream itself.
	// Several islands each draw from their own stream split
	// deterministically from Seed. Determinism contract: a fixed Seed
	// and a fixed Islands give bit-identical results, FitnessEvaluations
	// included, regardless of Workers or goroutine scheduling (pinned by
	// test). Clamped so every island holds at least 2 individuals
	// (Islands <= 0 -> 1, Islands > PopulationSize/2 -> PopulationSize/2).
	Islands int
	// MigrationInterval is the epoch length: the number of generations
	// each island evolves between ring migrations (0: default 5;
	// negative: migration off). Ignored with Islands <= 1.
	MigrationInterval int
	// MigrationCount is the number of emigrants each island sends to
	// its ring successor per migration — its best individuals, cloned,
	// replacing the receiver's worst. 0 selects 1; values >= the
	// smallest island population are capped one below it; negative
	// disables migration.
	MigrationCount int
	// Engine selects the throughput engine used for fitness evaluation.
	// nil selects the engine package's zero-allocation bottleneck fast
	// path (§4.5); any other engine.Predictor (e.g. the LP reference)
	// goes through the generic interface.
	Engine engine.Predictor
	// Seed makes runs reproducible.
	Seed int64
	// DisableCache scores every local-search probe by a full evaluation
	// instead of the incremental (delta) EvaluateDelta, which re-predicts
	// only the experiments containing the changed instruction. Evolution
	// evaluates every child either way, and fitness predictions take the
	// same engine path. Results are bit-identical either way (pinned by
	// test); only the engine's delta counters and, by the one evaluation
	// that starts delta scoring, FitnessEvaluations differ. It is the
	// reference side of the on/off twin tests and of pmevo-bench's
	// fitness experiment.
	DisableCache bool
	// ConvergenceEps terminates evolution when the spread of Davg in the
	// selected population falls below it and all volumes agree.
	ConvergenceEps float64
	// SeedMappings are injected into the initial population (extension:
	// warm-starting from an existing, possibly outdated port mapping —
	// the OSACA-style validation/refinement use case of §6). Mappings
	// must cover the instruction set with the configured port count.
	SeedMappings []*portmap.Mapping
	// CheckpointDir enables crash-safe checkpointing: every
	// CheckpointInterval generations (and at every migration barrier, on
	// interruption, and on completion of the generational phase) the
	// run atomically writes one checkpoint file (populations, RNG stream
	// positions, generation counters and histories) to this directory.
	// Empty disables checkpointing.
	CheckpointDir string
	// CheckpointInterval is the periodic checkpoint cadence in
	// generations (0: default 10; negative: periodic checkpoints off —
	// barrier/interruption/completion checkpoints still happen).
	// Clamped, never an error, in the planIslands style.
	CheckpointInterval int
	// Resume restores the run from CheckpointDir's checkpoint before
	// evolving. The determinism contract: an interrupted-then-resumed
	// fixed-seed run produces Best/BestError/BestVolume/History/
	// Generations bit-identical to an uninterrupted run (pinned by
	// golden test); only run-local diagnostics (FitnessEvaluations,
	// CacheStats) may differ, since the resumed process skips work the
	// first process already did. A missing, damaged, or incompatible
	// checkpoint — different experiment set, seed, or any
	// trajectory-shaping option — logs a diagnostic and cold-starts;
	// MaxGenerations may differ (a resume can extend the budget).
	Resume bool
	// OnGeneration, when non-nil, is called on the coordinator
	// goroutine at every epoch barrier with the number of generations
	// completed so far (the furthest island's count). A single island
	// runs epochs of one generation, so it reports 1, 2, ...,
	// Generations; several islands report at every migration barrier,
	// and not at all with migration off. It is a progress hook and a
	// deterministic cancellation point for tests; it must not call back
	// into the run.
	OnGeneration func(gensDone int)
	// Log, when non-nil, receives checkpoint/resume diagnostics
	// (Printf-style). Nil means silent.
	Log func(format string, args ...any)
}

// DefaultOptions returns a configuration suitable for medium-size
// inference runs.
func DefaultOptions(numPorts int) Options {
	return Options{
		PopulationSize:  500,
		MaxGenerations:  60,
		NumPorts:        numPorts,
		LocalSearch:     true,
		VolumeObjective: true,
		Seed:            1,
		ConvergenceEps:  1e-9,
	}
}

// GenStats records one generation for convergence inspection.
type GenStats struct {
	Generation int
	BestError  float64
	BestVolume int
	MeanError  float64
}

// Result is the outcome of a Run.
type Result struct {
	// Best is the fittest mapping found.
	Best *portmap.Mapping
	// BestError is Davg(Best) on the input measurements.
	BestError float64
	// BestVolume is V(Best).
	BestVolume int
	// Generations is the number of evolution steps performed.
	Generations int
	// FitnessEvaluations counts Davg computations (the paper's cost
	// metric for the bottleneck algorithm's speed).
	FitnessEvaluations int
	// History records per-generation statistics.
	History []GenStats
	// CacheStats snapshots the engine's evaluation counters (kernel
	// calls, delta evaluations, experiments skipped) at the end of the
	// run.
	CacheStats engine.CacheStats
}

// individual carries a candidate mapping with cached objectives.
type individual struct {
	m      *portmap.Mapping
	davg   float64
	volume int
}

// Run executes the evolutionary algorithm on a measured experiment set.
//
// Cancellation: ctx is honored at every generation boundary, between
// candidates inside a fitness batch, and between local-search probes.
// When ctx is canceled or its deadline passes, Run stops at the next
// such point and returns the best-so-far partial *Result together with
// a typed error wrapping ErrCanceled or ErrDeadline (nil Result only
// when not even the initial population was evaluated). With
// Options.CheckpointDir set, the state at the last completed
// generation boundary is checkpointed before returning, ready for
// Options.Resume.
func Run(ctx context.Context, set *exp.Set, opts Options) (*Result, error) {
	if set == nil || set.NumInsts == 0 {
		return nil, errors.New("evo: empty instruction set")
	}
	if len(set.Measurements) == 0 {
		return nil, errors.New("evo: no measurements")
	}
	if opts.PopulationSize < 2 {
		return nil, errors.New("evo: population size must be at least 2")
	}
	if opts.MaxGenerations < 1 {
		return nil, errors.New("evo: need at least one generation")
	}
	if opts.NumPorts <= 0 || opts.NumPorts > portmap.MaxPorts {
		return nil, fmt.Errorf("evo: invalid port count %d", opts.NumPorts)
	}
	for _, m := range set.Measurements {
		if !exp.ValidThroughput(m.Throughput) {
			return nil, fmt.Errorf("evo: measured throughput %g is not finite and positive", m.Throughput)
		}
	}
	if opts.ConvergenceEps <= 0 {
		opts.ConvergenceEps = 1e-9
	}
	for _, sm := range opts.SeedMappings {
		if sm.NumInsts() != set.NumInsts || sm.NumPorts != opts.NumPorts {
			return nil, fmt.Errorf("evo: seed mapping dimensions %dx%d do not match %dx%d",
				sm.NumInsts(), sm.NumPorts, set.NumInsts, opts.NumPorts)
		}
		if err := sm.Validate(); err != nil {
			return nil, fmt.Errorf("evo: invalid seed mapping: %w", err)
		}
	}

	logf := opts.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}

	plan := planIslands(opts)
	ckptKey := checkpointKey(expSetFingerprint(set), opts, plan)

	// Resume restores the checkpoint; every failure path cold-starts with
	// a diagnostic.
	var restored *ckptState
	if opts.Resume && opts.CheckpointDir != "" {
		st, err := loadCheckpoint(opts.CheckpointDir, ckptKey, set.NumInsts, opts.NumPorts)
		if err != nil {
			logf("evo: resume: cold start: %v", err)
		} else if err := validateCheckpointGeometry(st, plan); err != nil {
			logf("evo: resume: cold start: %v", err)
		} else {
			restored = st
			logf("evo: resume: restored checkpoint at generation %d from %s",
				maxGens(st), CheckpointPath(opts.CheckpointDir))
		}
	}

	// The islands run on min(w, islands) goroutines; each batch gets
	// that goroutine's share of the workers.
	w := engine.Workers(opts.Workers)
	svc, err := engine.NewService(set, engine.ServiceOptions{
		Workers:   max(1, w/min(w, plan.islands)),
		Predictor: opts.Engine,
	})
	if err != nil {
		return nil, fmt.Errorf("evo: %w", err)
	}

	var cp *checkpointer
	if opts.CheckpointDir != "" {
		cp = &checkpointer{
			dir:      opts.CheckpointDir,
			interval: planCheckpointInterval(opts),
			key:      ckptKey,
			numInsts: set.NumInsts,
			numPorts: opts.NumPorts,
			logf:     logf,
		}
	}

	res := &Result{}
	best, err := runIslands(ctx, set, opts, svc, plan, res, cp, restored)
	finish := func(b individual) *Result {
		res.Best = b.m
		res.BestError = b.davg
		res.BestVolume = b.volume
		res.FitnessEvaluations = svc.Evaluations()
		res.CacheStats = svc.Stats()
		return res
	}
	if err != nil {
		if runctrl.Interrupted(err) && best.m != nil {
			return finish(best), err
		}
		return nil, err
	}
	if opts.LocalSearch {
		improved, lsErr := localSearch(ctx, svc, best, opts)
		if lsErr != nil {
			if runctrl.Interrupted(lsErr) && improved.m != nil {
				return finish(improved), lsErr
			}
			return nil, lsErr
		}
		best = improved
	}
	return finish(best), nil
}

// maxGens returns the furthest generation any island of a checkpoint
// reached (for the resume diagnostic).
func maxGens(st *ckptState) int {
	g := 0
	for i := range st.islands {
		if st.islands[i].gens > g {
			g = st.islands[i].gens
		}
	}
	return g
}

// validateCheckpointGeometry cross-checks a decoded checkpoint against
// the run's clamped plan. The content key already covers everything
// here (same options hash to the same key), so failures indicate a
// damaged-but-checksum-colliding file or a version skew — treated, as
// always, as a cold start.
func validateCheckpointGeometry(st *ckptState, plan islandPlan) error {
	if len(st.islands) != plan.islands {
		return fmt.Errorf("checkpoint has %d islands, want %d", len(st.islands), plan.islands)
	}
	for k := range st.islands {
		if n := len(st.islands[k].pop); n != plan.sizes[k] {
			return fmt.Errorf("checkpoint island %d population %d, want %d", k, n, plan.sizes[k])
		}
	}
	return nil
}

// defaultMigrationInterval is the epoch length when
// Options.MigrationInterval is 0.
const defaultMigrationInterval = 5

// islandPlan is the clamped island-model geometry of a run (the
// satellite contract: nonsensical Options values are normalized here,
// never returned as errors).
type islandPlan struct {
	islands  int   // >= 1
	sizes    []int // per-island population; sums to PopulationSize
	interval int   // generations per epoch; 0: one epoch of the whole budget
	count    int   // emigrants per migration; 0: migration off
}

// planIslands clamps the island-model knobs: Islands <= 0 collapses to
// 1, Islands too large for PopulationSize is capped so every island
// holds at least 2 individuals, MigrationCount is capped below the
// smallest island population, and zero interval/count select defaults.
// A single island has no one to migrate with; it runs epochs of one
// generation, so progress and periodic checkpoints come after every
// generation.
func planIslands(opts Options) islandPlan {
	n := opts.Islands
	if n <= 0 {
		n = 1
	}
	if max := opts.PopulationSize / 2; n > max {
		n = max
	}
	pl := islandPlan{islands: n, sizes: make([]int, n)}
	base, rem := opts.PopulationSize/n, opts.PopulationSize%n
	for k := range pl.sizes {
		pl.sizes[k] = base
		if k < rem {
			pl.sizes[k]++
		}
	}
	if n == 1 {
		pl.interval = 1
		return pl
	}
	interval := opts.MigrationInterval
	if interval == 0 {
		interval = defaultMigrationInterval
	}
	count := opts.MigrationCount
	if count == 0 {
		count = 1
	}
	if count > base-1 {
		count = base - 1 // base is the smallest island population
	}
	if interval < 0 || count < 0 {
		interval, count = 0, 0
	}
	pl.interval, pl.count = interval, count
	return pl
}

// island is one sub-population of a run (the whole population when the
// run has one island). Every generation's children are evaluated,
// duplicates included. Between epoch barriers an island touches no
// state outside itself except the shared engine.Service, whose
// experiment data is read-only and whose results do not depend on which
// scratch or goroutine computes them, which is what makes the run
// scheduling-independent.
type island struct {
	idx        int
	rng        *rand.Rand
	src        *countingSource
	pop        []individual // sorted best-first after every generation; the discarded follow past len
	sc         genScratch
	history    []GenStats
	gens       int
	draws      uint64 // RNG draw count at the last generation boundary
	epochStart int    // gens at the start of the current epoch
	target     int    // gens this epoch runs to (set by the coordinator)
	inited     bool
	converged  bool
	err        error
}

// genScratch is an island's storage for the generation step, reused
// across generations so that, once it has grown, the island's own part
// of a step allocates nothing: recombination's splits and the dropped
// child of an odd population, the batch handed to the evaluator and
// selection's sort keys.
type genScratch struct {
	a1, a2, b1, b2 []portmap.UopCount // one instruction of parents a and b, split between children 1 and 2
	spare          individual         // takes the last pair's second child when p is odd

	ms   []*portmap.Mapping // the batch's mappings, in order
	fits []engine.Fitness   // their fitnesses

	byKey popByKey
}

// alive reports whether the island still has evolution budget.
func (isl *island) alive(maxGens int) bool {
	return isl.err == nil && isl.gens < maxGens && !isl.converged
}

// evolve advances the island up to its epoch target (first evaluating
// the initial population if this is the island's first epoch). It is
// the one generation loop of Algorithm 1: recombine p children from the
// island's RNG stream, evaluate them, keep the best p of 2p, and stop
// early once the population has converged. Called concurrently across
// islands; errors are parked in isl.err for the coordinator.
// Cancellation stops the island at a generation boundary —
// isl.gens/isl.draws always describe a fully evaluated, sorted
// population, so an interrupted island checkpoints and resumes exactly
// like one that hit its barrier.
//
// The children are built in the slots past the p survivors, isl.pop[p:2p],
// into the mappings the previous selection discarded there; only the
// first generation, and the first after a resume, allocate them. A
// mapping may be held outside its slot only by a survivor's slot,
// Result.Best (taken after the last generation) and a checkpoint
// snapshot (encoded before the next generation starts), so a discarded
// mapping is free to overwrite. Migration replaces survivors with
// clones, and the replaced mappings are dropped, not recycled.
func (isl *island) evolve(ctx context.Context, svc *engine.Service, set *exp.Set, opts Options) {
	if isl.err != nil {
		return
	}
	if !isl.inited {
		if err := isl.evaluate(ctx, svc, isl.pop); err != nil {
			isl.err = err
			return
		}
		isl.inited = true
		isl.draws = isl.src.n
	}
	p := len(isl.pop)
	for isl.gens < isl.target && isl.gens < opts.MaxGenerations && !isl.converged {
		if runctrl.Check(ctx) != nil {
			// Boundary stop: the coordinator notices the interruption
			// itself, so the island just stops cleanly.
			return
		}
		gen := isl.gens

		if debugRecycle {
			isl.checkRecycle(gen)
		}
		isl.pop = slices.Grow(isl.pop, p)
		children := isl.pop[p : 2*p]
		for j := 0; j < p; j += 2 {
			a := isl.pop[isl.rng.Intn(p)].m
			b := isl.pop[isl.rng.Intn(p)].m
			slot2 := &isl.sc.spare // an odd p still draws the last pair's second child
			if j+1 < p {
				slot2 = &children[j+1]
			}
			c1 := reuseChild(&children[j], set.NumInsts, opts.NumPorts)
			c2 := reuseChild(slot2, set.NumInsts, opts.NumPorts)
			recombine(isl.rng, a, b, c1, c2, &isl.sc)
			if opts.MutationRate > 0 {
				mutate(isl.rng, c1, opts, set.Individual)
				mutate(isl.rng, c2, opts, set.Individual)
			}
		}
		if err := isl.evaluate(ctx, svc, children); err != nil {
			// Interrupted mid-batch: the aborted generation's children
			// are discarded and the island state stays at the last
			// boundary (gens/draws untouched). Real errors propagate.
			isl.err = err
			return
		}
		isl.pop = isl.pop[:2*p]
		selectBest(&isl.sc.byKey, isl.pop, opts.VolumeObjective, opts.AccuracyWeight)
		isl.pop = isl.pop[:p]

		best := isl.pop[0]
		isl.history = append(isl.history, GenStats{
			Generation: gen,
			BestError:  best.davg,
			BestVolume: best.volume,
			MeanError:  meanError(isl.pop),
		})
		isl.gens = gen + 1
		isl.draws = isl.src.n
		if converged(isl.pop, opts.ConvergenceEps) {
			isl.converged = true
		}
	}
}

// reuseChild empties the individual in slot for a child and returns its
// mapping to write the child into: the mapping a discarded individual
// left there, or a new one. Names are dropped, since a discarded seed
// mapping carries its own and a child has none.
func reuseChild(slot *individual, numInsts, numPorts int) *portmap.Mapping {
	m := slot.m
	if m == nil {
		m = portmap.NewMapping(numInsts, numPorts)
	}
	m.InstNames, m.PortNames = nil, nil
	*slot = individual{m: m}
	return m
}

// checkRecycle is the pmevodebug guard on recycling: it panics if a
// mapping in the slots the next children overwrite is still held by a
// survivor.
func (isl *island) checkRecycle(gen int) {
	p := len(isl.pop)
	for _, old := range isl.pop[p:min(cap(isl.pop), 2*p)] {
		if old.m == nil {
			continue
		}
		for _, s := range isl.pop {
			if s.m == old.m {
				panic(fmt.Sprintf("evo: island %d, generation %d: a mapping about to be recycled as a child is held by a survivor", isl.idx, gen))
			}
		}
	}
}

// runIslands is the generation loop of every run: plan.islands
// sub-populations evolving concurrently in epochs of plan.interval
// generations (one epoch of the whole budget when migration is off),
// with a serial ring migration at every barrier between epochs when
// plan.count > 0. Returns the fittest individual before local search
// and fills res.Generations/History.
//
// Cancellation is observed at island generation boundaries and acted on
// at the epoch barrier: the coordinator checkpoints every island's
// boundary state (per-island gens + epochStart, so a mid-epoch stop
// resumes to the same barrier) and returns the best so far with the
// typed interruption error. An interruption before the initial
// population was evaluated returns no individual.
func runIslands(ctx context.Context, set *exp.Set, opts Options, svc *engine.Service, plan islandPlan, res *Result, cp *checkpointer, restored *ckptState) (individual, error) {
	// A single island draws from the master stream itself. Several
	// islands each take a stream seeded by the master's k-th draw, so the
	// layout is a pure function of (Seed, Islands) — independent of
	// Workers and of which goroutine runs which island.
	master, msrc := newCountedRand(opts.Seed)
	isls := make([]*island, plan.islands)
	for k := range isls {
		rng, src := master, msrc
		if plan.islands > 1 {
			rng, src = newCountedRand(master.Int63())
		}
		isls[k] = &island{idx: k, rng: rng, src: src}
	}
	restoredEpoch := false
	if restored != nil {
		// Geometry was validated by the caller; each island fast-forwards
		// its RNG to its boundary draw count and picks up its population,
		// so the continuation is draw-for-draw the uninterrupted run.
		for k, isl := range isls {
			st := &restored.islands[k]
			isl.pop = append(isl.pop, st.pop...)
			isl.history = append(isl.history, st.history...)
			isl.gens = st.gens
			isl.epochStart = st.epochStart
			isl.inited = st.inited
			isl.converged = st.converged
			isl.src.skip(st.draws)
			isl.draws = st.draws
		}
		restoredEpoch = true
	} else {
		// Seed mappings are distributed round-robin; each island fills the
		// rest of its population from its own stream. Recombination
		// merges canonical decompositions, so a seed enters canonical.
		for i, sm := range opts.SeedMappings {
			isl := isls[i%len(isls)]
			if len(isl.pop) < plan.sizes[isl.idx] {
				m := sm.Clone()
				for inst, d := range m.Decomp {
					m.SetDecomp(inst, d)
				}
				isl.pop = append(isl.pop, individual{m: m})
			}
		}
		for k, isl := range isls {
			for len(isl.pop) < plan.sizes[k] {
				isl.pop = append(isl.pop, individual{m: portmap.Random(isl.rng, portmap.RandomOptions{
					NumInsts:       set.NumInsts,
					NumPorts:       opts.NumPorts,
					ThroughputHint: set.Individual,
				})})
			}
			isl.draws = isl.src.n
		}
	}

	// islandState snapshots every island's boundary state for
	// checkpointing (slices are copied at encode time).
	islandState := func() *ckptState {
		st := &ckptState{islands: make([]ckptIsland, len(isls))}
		for k, isl := range isls {
			st.islands[k] = ckptIsland{
				draws:      isl.draws,
				gens:       isl.gens,
				epochStart: isl.epochStart,
				inited:     isl.inited,
				converged:  isl.converged,
				history:    isl.history,
				pop:        isl.pop,
			}
		}
		return st
	}
	maxIslandGens := func() int {
		g := 0
		for _, isl := range isls {
			if isl.gens > g {
				g = isl.gens
			}
		}
		return g
	}
	// bestSoFar is a single island's own best. Several islands rank the
	// union of their initialized populations under one shared
	// normalization, exactly as one combined generation would be — the
	// same selection the uninterrupted run performs at the end. (A single
	// island is not re-ranked: a normalization over the survivors alone
	// can order them differently from the selection that kept them.)
	// Before any population was evaluated there is no best: the zero
	// individual.
	bestSoFar := func() individual {
		combined := make([]individual, 0, opts.PopulationSize)
		for _, isl := range isls {
			if isl.inited {
				combined = append(combined, isl.pop...)
			}
		}
		if len(combined) == 0 {
			return individual{}
		}
		if len(isls) > 1 {
			selectBest(&popByKey{}, combined, opts.VolumeObjective, opts.AccuracyWeight)
		}
		return combined[0]
	}

	for {
		alive := 0
		for _, isl := range isls {
			if isl.alive(opts.MaxGenerations) {
				alive++
			}
		}
		if alive == 0 {
			break
		}
		// Assign this epoch's per-island generation targets. On the
		// first round after a resume the saved epochStart is reused, so
		// a mid-epoch interruption continues to the barrier the
		// uninterrupted run would have hit; afterwards each epoch starts
		// at the island's own boundary.
		for _, isl := range isls {
			if plan.interval == 0 {
				isl.epochStart = isl.gens
				isl.target = opts.MaxGenerations // one epoch runs the full budget
				continue
			}
			if !restoredEpoch {
				isl.epochStart = isl.gens
			}
			isl.target = isl.epochStart + plan.interval
		}
		restoredEpoch = false
		engine.ForEachWorker(len(isls), opts.Workers, func(_, k int) {
			isls[k].evolve(ctx, svc, set, opts)
		})
		interrupted := runctrl.Check(ctx)
		for _, isl := range isls {
			if isl.err == nil {
				continue
			}
			if runctrl.Interrupted(isl.err) {
				// The island stopped at its last boundary; the
				// coordinator owns the interruption from here.
				if interrupted == nil {
					interrupted = isl.err
				}
				isl.err = nil
				continue
			}
			return individual{}, isl.err
		}
		if interrupted != nil {
			res.Generations, res.History = mergeIslandStats(isls)
			cp.save(maxIslandGens(), islandState)
			return bestSoFar(), interrupted
		}
		if plan.interval == 0 {
			break
		}
		for _, isl := range isls {
			isl.epochStart = isl.gens
		}
		if plan.count > 0 {
			// Migration rewrites populations outside the islands' own
			// generation loops; the barrier checkpoint captures the
			// post-migration state so a resume never replays the exchange.
			migrate(isls, plan.count, opts.ConvergenceEps)
			cp.save(maxIslandGens(), islandState)
		} else {
			cp.maybe(maxIslandGens(), islandState)
		}
		if opts.OnGeneration != nil {
			opts.OnGeneration(maxIslandGens())
		}
	}

	res.Generations, res.History = mergeIslandStats(isls)
	cp.save(res.Generations, islandState)
	return bestSoFar(), nil
}

// migrate performs one ring migration: island k's best count individuals
// (clones, so islands never share mutable mappings) replace island
// (k+1 mod N)'s worst. Emigrants are collected from every island before
// any are applied, so the exchange sees each island's pre-migration
// population and the result is independent of application order. A
// converged island keeps donating; receiving immigrants that re-open its
// fitness spread puts it back into the evolution loop.
func migrate(isls []*island, count int, eps float64) {
	n := len(isls)
	emigrants := make([][]individual, n)
	for k, isl := range isls {
		es := make([]individual, 0, count)
		for j := 0; j < count && j < len(isl.pop); j++ {
			src := isl.pop[j]
			es = append(es, individual{m: src.m.Clone(), davg: src.davg, volume: src.volume})
		}
		emigrants[k] = es
	}
	for k := range isls {
		dst := isls[(k+1)%n]
		for j, em := range emigrants[k] {
			dst.pop[len(dst.pop)-1-j] = em
		}
		if dst.converged && !converged(dst.pop, eps) {
			dst.converged = false
		}
	}
}

// mergeIslandStats folds per-island histories into the Result shape:
// generation g's BestError/BestVolume is the best over the islands that
// ran generation g (ties break on volume, then island order), MeanError
// is the population-weighted mean, and Generations is the longest island
// run. A single island's history is returned as is (weighting its mean
// by its own size could round it differently).
func mergeIslandStats(isls []*island) (int, []GenStats) {
	if len(isls) == 1 {
		return isls[0].gens, isls[0].history
	}
	gens := 0
	for _, isl := range isls {
		if isl.gens > gens {
			gens = isl.gens
		}
	}
	var hist []GenStats
	for g := 0; ; g++ {
		any := false
		hs := GenStats{Generation: g, BestError: math.Inf(1), BestVolume: math.MaxInt}
		sumMean, totalPop := 0.0, 0
		for _, isl := range isls {
			if g >= len(isl.history) {
				continue
			}
			h := isl.history[g]
			if h.BestError < hs.BestError || (h.BestError == hs.BestError && h.BestVolume < hs.BestVolume) {
				hs.BestError, hs.BestVolume = h.BestError, h.BestVolume
			}
			sumMean += h.MeanError * float64(len(isl.pop))
			totalPop += len(isl.pop)
			any = true
		}
		if !any {
			break
		}
		hs.MeanError = sumMean / float64(totalPop)
		hist = append(hist, hs)
	}
	return gens, hist
}

// evaluate fills in the objectives of all individuals with one
// svc.EvaluateAll call. The buffers live in the island's scratch.
//
// An interrupted EvaluateAll leaves the batch partially filled; the
// error propagates and no individual is updated, so the caller's
// population stays consistent (the aborted batch is simply discarded).
func (isl *island) evaluate(ctx context.Context, svc *engine.Service, inds []individual) error {
	sc := &isl.sc
	sc.ms = sc.ms[:0]
	for i := range inds {
		sc.ms = append(sc.ms, inds[i].m)
	}
	sc.fits = slices.Grow(sc.fits[:0], len(inds))[:len(inds)]
	if err := svc.EvaluateAll(ctx, sc.ms, sc.fits); err != nil {
		return err
	}
	for i := range inds {
		inds[i].davg = sc.fits[i].Davg
		inds[i].volume = sc.fits[i].Volume
	}
	return nil
}

func meanError(pop []individual) float64 {
	s := 0.0
	for _, ind := range pop {
		s += ind.davg
	}
	return s / float64(len(pop))
}

// converged reports whether the population has collapsed to a single
// fitness value (§4.4 termination criterion).
func converged(pop []individual, eps float64) bool {
	minD, maxD := pop[0].davg, pop[0].davg
	minV, maxV := pop[0].volume, pop[0].volume
	for _, ind := range pop[1:] {
		minD = math.Min(minD, ind.davg)
		maxD = math.Max(maxD, ind.davg)
		if ind.volume < minV {
			minV = ind.volume
		}
		if ind.volume > maxV {
			maxV = ind.volume
		}
	}
	return maxD-minD < eps && minV == maxV
}

// selectBest sorts the population best-first by scalarized fitness F(m) =
// w·Λ1(Davg(m)) + Λ2(V(m)) with both objectives affinely normalized to
// [0, 1000] over the current population (the paper uses w = 1); the
// caller keeps the best p. Ties break deterministically on
// (davg, volume). The scalarized key is computed once per individual —
// O(n) normalizations — and the stable sort compares keys, so the
// resulting order is identical to recomputing the key in the comparator.
// The keys go into by, whose buffer is reused across calls.
func selectBest(by *popByKey, pop []individual, volumeObjective bool, accuracyWeight float64) {
	if accuracyWeight <= 0 {
		accuracyWeight = 1
	}
	minD, maxD := pop[0].davg, pop[0].davg
	minV, maxV := float64(pop[0].volume), float64(pop[0].volume)
	for _, ind := range pop[1:] {
		minD = math.Min(minD, ind.davg)
		maxD = math.Max(maxD, ind.davg)
		minV = math.Min(minV, float64(ind.volume))
		maxV = math.Max(maxV, float64(ind.volume))
	}
	norm := func(v, lo, hi float64) float64 {
		if hi <= lo {
			return 0
		}
		return (v - lo) / (hi - lo) * 1000
	}
	by.pop = pop
	by.keys = slices.Grow(by.keys[:0], len(pop))[:len(pop)]
	for i := range pop {
		f := accuracyWeight * norm(pop[i].davg, minD, maxD)
		if volumeObjective {
			f += norm(float64(pop[i].volume), minV, maxV)
		}
		by.keys[i] = f
	}
	sort.Stable(by)
}

// popByKey sorts a population and its precomputed scalarized fitness
// keys together.
type popByKey struct {
	pop  []individual
	keys []float64
}

func (s *popByKey) Len() int { return len(s.pop) }

func (s *popByKey) Less(i, j int) bool {
	if s.keys[i] != s.keys[j] {
		return s.keys[i] < s.keys[j]
	}
	if s.pop[i].davg != s.pop[j].davg {
		return s.pop[i].davg < s.pop[j].davg
	}
	return s.pop[i].volume < s.pop[j].volume
}

func (s *popByKey) Swap(i, j int) {
	s.pop[i], s.pop[j] = s.pop[j], s.pop[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

// recombine implements the paper's binary recombination of parents a
// and b into children c1 and c2: for each instruction, the µops of both
// parents (with multiplicities) are divided randomly into two parts that
// become the children's decompositions. A child that would end up with
// no µops for an instruction receives one random µop instance from the
// combined pool.
//
// The parents' decompositions are canonical, so splitting each one in
// turn, a's µops and then b's, draws exactly as a split of the combined
// pool would and leaves four canonical parts in sc. Each child's
// decomposition is the merge of its two parts, written into the child's
// own storage (portmap's SetDecompMerged): the canonical form without a
// sort or a fresh slice. The children must be distinct mappings, neither
// of them a parent.
func recombine(rng *rand.Rand, a, b, c1, c2 *portmap.Mapping, sc *genScratch) {
	for i := range a.Decomp {
		da, db := a.Decomp[i], b.Decomp[i]
		sc.a1, sc.a2 = split(rng, da, sc.a1, sc.a2)
		sc.b1, sc.b2 = split(rng, db, sc.b1, sc.b2)
		if len(sc.a1)+len(sc.b1) == 0 {
			sc.a1 = append(sc.a1, poolUop(rng, da, db))
		}
		if len(sc.a2)+len(sc.b2) == 0 {
			sc.a2 = append(sc.a2, poolUop(rng, da, db))
		}
		c1.SetDecompMerged(i, sc.a1, sc.b1)
		c2.SetDecompMerged(i, sc.a2, sc.b2)
	}
}

// split divides the multiplicity of every µop in uops binomially between
// two children, one draw per instance, and returns the children's
// non-empty parts in d1's and d2's storage. The parts of a canonical
// decomposition are canonical.
func split(rng *rand.Rand, uops, d1, d2 []portmap.UopCount) ([]portmap.UopCount, []portmap.UopCount) {
	d1, d2 = slices.Grow(d1[:0], len(uops)), slices.Grow(d2[:0], len(uops))
	for _, uc := range uops {
		k := 0
		for j := 0; j < uc.Count; j++ {
			if rng.Intn(2) == 0 {
				k++
			}
		}
		if k > 0 {
			d1 = append(d1, portmap.UopCount{Ports: uc.Ports, Count: k})
		}
		if uc.Count-k > 0 {
			d2 = append(d2, portmap.UopCount{Ports: uc.Ports, Count: uc.Count - k})
		}
	}
	return d1, d2
}

// poolUop returns one instance of a random µop of the combined pool
// da ++ db.
func poolUop(rng *rand.Rand, da, db []portmap.UopCount) portmap.UopCount {
	j := rng.Intn(len(da) + len(db))
	if j < len(da) {
		return portmap.UopCount{Ports: da[j].Ports, Count: 1}
	}
	return portmap.UopCount{Ports: db[j-len(da)].Ports, Count: 1}
}

// mutate re-randomizes each instruction's decomposition with probability
// opts.MutationRate (ablation only; the paper's design omits mutation).
func mutate(rng *rand.Rand, m *portmap.Mapping, opts Options, tpHints []float64) {
	for i := 0; i < m.NumInsts(); i++ {
		if rng.Float64() >= opts.MutationRate {
			continue
		}
		hint := 1.0
		if tpHints != nil {
			hint = tpHints[i]
		}
		single := portmap.Random(rng, portmap.RandomOptions{
			NumInsts:       1,
			NumPorts:       opts.NumPorts,
			ThroughputHint: []float64{hint},
		})
		m.SetDecomp(i, single.Decomp[0])
	}
}

// localSearchMaxPasses bounds the hill-climbing sweeps; a sweep that
// improves nothing ends the search earlier.
const localSearchMaxPasses = 32

// localSearch greedily adjusts µop multiplicities (§4.4: "incrementally
// adjusts the number n of µop occurrences for each edge (i,n,u) ∈ N and
// keeps the changes to the port mapping if it is fitter than before").
// An adjustment is kept if it reduces Davg, or keeps Davg (within 1e-12)
// while reducing the volume.
//
// Each ±1 probe edits the single affected µop count in place and is
// scored through the engine's incremental EvaluateDelta, which only
// re-predicts the experiments containing the changed instruction;
// rejected probes revert the edit, accepted ones commit the delta. The
// one Clone is taken up front, so the probe loop allocates nothing and
// its cost is O(#experiments containing instruction i) per probe instead
// of O(#experiments). With Options.DisableCache every probe is scored by
// a full evaluation instead — bit-identical, pinned by test.
//
// Cancellation is checked per pass and per instruction; an interrupted
// search returns the best individual accepted so far (every commit
// leaves m consistent) with the typed interruption error.
func localSearch(ctx context.Context, svc *engine.Service, start individual, opts Options) (individual, error) {
	m := start.m.Clone()
	cur := engine.Fitness{Davg: start.davg, Volume: start.volume}
	var st *engine.FitnessState
	if !opts.DisableCache {
		var err error
		st, err = svc.NewState(m)
		if err != nil {
			return individual{}, err
		}
		cur = st.Fitness()
	}

	better := func(d2 float64, v2 int, d1 float64, v1 int) bool {
		if d2 < d1-1e-12 {
			return true
		}
		return d2 <= d1+1e-12 && v2 < v1
	}

	for pass := 0; pass < localSearchMaxPasses; pass++ {
		improved := false
		for i := 0; i < m.NumInsts(); i++ {
			if err := runctrl.Check(ctx); err != nil {
				return individual{m: m, davg: cur.Davg, volume: cur.Volume}, err
			}
			for j := 0; j < len(m.Decomp[i]); j++ {
				orig := m.Decomp[i][j].Count
				for _, delta := range []int{1, -1} {
					next := orig + delta
					if next < 0 {
						continue
					}
					if next == 0 && len(m.Decomp[i]) == 1 {
						continue // every instruction needs at least one µop
					}
					var removed portmap.UopCount
					if next == 0 {
						removed = m.RemoveUopAt(i, j)
					} else {
						m.SetUopCount(i, j, next)
					}
					var fit engine.Fitness
					var err error
					if st != nil {
						fit, err = svc.EvaluateDelta(st, i)
					} else {
						fit, err = svc.Evaluate(m)
					}
					if err != nil {
						return individual{}, err
					}
					if better(fit.Davg, fit.Volume, cur.Davg, cur.Volume) {
						if st != nil {
							st.Commit()
						}
						cur = fit
						improved = true
						break // re-inspect the modified decomposition
					}
					// Rejected: revert the in-place edit.
					if next == 0 {
						m.InsertUopAt(i, j, removed)
					} else {
						m.SetUopCount(i, j, orig)
					}
				}
				if j >= len(m.Decomp[i]) {
					break
				}
			}
		}
		if !improved {
			break
		}
	}
	return individual{m: m, davg: cur.Davg, volume: cur.Volume}, nil
}
