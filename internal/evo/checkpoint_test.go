package evo

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"pmevo/internal/cachestore"
	"pmevo/internal/engine"
	"pmevo/internal/exp"
	"pmevo/internal/faultfs"
	"pmevo/internal/portmap"
)

// ckptOpts is a small but non-trivial configuration for the
// checkpoint/resume golden tests: big enough that the trajectory is
// interesting, small enough to run three full searches per test.
func ckptOpts() Options {
	return Options{
		PopulationSize:  60,
		MaxGenerations:  14,
		NumPorts:        3,
		LocalSearch:     true,
		VolumeObjective: true,
		Seed:            11,
		Workers:         2,
	}
}

func mustRun(t *testing.T, opts Options) *Result {
	t.Helper()
	res, err := Run(context.Background(), measuredSet(t, hiddenMapping()), opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameTrajectory asserts the bit-identity contract of Options.Resume:
// Best/BestError/BestVolume/History/Generations must match exactly
// (FitnessEvaluations and CacheStats are run-local diagnostics and
// deliberately excluded).
func sameTrajectory(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Best.String() != want.Best.String() {
		t.Errorf("%s: Best differs\ngot:\n%s\nwant:\n%s", label, got.Best, want.Best)
	}
	if math.Float64bits(got.BestError) != math.Float64bits(want.BestError) {
		t.Errorf("%s: BestError %v != %v", label, got.BestError, want.BestError)
	}
	if got.BestVolume != want.BestVolume {
		t.Errorf("%s: BestVolume %d != %d", label, got.BestVolume, want.BestVolume)
	}
	if got.Generations != want.Generations {
		t.Errorf("%s: Generations %d != %d", label, got.Generations, want.Generations)
	}
	if len(got.History) != len(want.History) {
		t.Fatalf("%s: History length %d != %d", label, len(got.History), len(want.History))
	}
	for i := range got.History {
		if got.History[i] != want.History[i] {
			t.Errorf("%s: History[%d] = %+v != %+v", label, i, got.History[i], want.History[i])
		}
	}
}

// historyPrefix asserts that a partial result's history is exactly the
// first generations of the uninterrupted run — interruption must never
// perturb the work already done.
func historyPrefix(t *testing.T, label string, partial, full *Result) {
	t.Helper()
	if len(partial.History) != partial.Generations {
		t.Fatalf("%s: partial has %d history entries for %d generations",
			label, len(partial.History), partial.Generations)
	}
	if len(partial.History) > len(full.History) {
		t.Fatalf("%s: partial history longer than full (%d > %d)",
			label, len(partial.History), len(full.History))
	}
	for i := range partial.History {
		if partial.History[i] != full.History[i] {
			t.Errorf("%s: History[%d] = %+v != full %+v", label, i, partial.History[i], full.History[i])
		}
	}
}

// cancelAt returns an OnGeneration hook canceling the run once gensDone
// reaches g, plus the context to run under.
func cancelAt(g int) (context.Context, func(int)) {
	ctx, cancel := context.WithCancel(context.Background())
	return ctx, func(gensDone int) {
		if gensDone >= g {
			cancel()
		}
	}
}

// TestResumeAfterInterruptBitIdenticalSingle is the tentpole golden
// test: a single-population run interrupted mid-search and resumed from
// its checkpoint must finish bit-identical to the uninterrupted run.
func TestResumeAfterInterruptBitIdenticalSingle(t *testing.T) {
	opts := ckptOpts()
	full := mustRun(t, opts)

	dir := t.TempDir()
	iopts := opts
	iopts.CheckpointDir = dir
	iopts.CheckpointInterval = 3
	ctx, hook := cancelAt(5)
	iopts.OnGeneration = hook
	partial, err := Run(ctx, measuredSet(t, hiddenMapping()), iopts)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("interrupted run: err = %v, want ErrCanceled", err)
	}
	if partial == nil || partial.Best == nil {
		t.Fatal("interrupted run returned no partial result")
	}
	if partial.Generations != 5 {
		t.Fatalf("interrupted at generation 5, partial reports %d", partial.Generations)
	}
	historyPrefix(t, "interrupted", partial, full)
	if _, err := os.Stat(CheckpointPath(dir)); err != nil {
		t.Fatalf("no checkpoint on disk after interruption: %v", err)
	}

	ropts := opts
	ropts.CheckpointDir = dir
	ropts.Resume = true
	var logs []string
	ropts.Log = func(f string, a ...any) { logs = append(logs, fmt.Sprintf(f, a...)) }
	resumed, err := Run(context.Background(), measuredSet(t, hiddenMapping()), ropts)
	if err != nil {
		t.Fatal(err)
	}
	if !containsLog(logs, "restored checkpoint at generation 5") {
		t.Errorf("resume did not report restoring the generation-5 checkpoint:\n%s", strings.Join(logs, "\n"))
	}
	sameTrajectory(t, "resumed", resumed, full)
}

// TestResumeAfterInterruptBitIdenticalIslands pins the same contract
// for the island model: interruption at an epoch barrier, resume,
// bit-identical finish.
func TestResumeAfterInterruptBitIdenticalIslands(t *testing.T) {
	opts := ckptOpts()
	opts.Islands = 3
	opts.MigrationInterval = 2
	opts.MigrationCount = 1
	full := mustRun(t, opts)

	dir := t.TempDir()
	iopts := opts
	iopts.CheckpointDir = dir
	ctx, hook := cancelAt(6)
	iopts.OnGeneration = hook
	partial, err := Run(ctx, measuredSet(t, hiddenMapping()), iopts)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("interrupted island run: err = %v, want ErrCanceled", err)
	}
	if partial == nil || partial.Best == nil {
		t.Fatal("interrupted island run returned no partial result")
	}
	if err := partial.Best.Validate(); err != nil {
		t.Fatalf("partial best invalid: %v", err)
	}

	ropts := opts
	ropts.CheckpointDir = dir
	ropts.Resume = true
	var logs []string
	ropts.Log = func(f string, a ...any) { logs = append(logs, fmt.Sprintf(f, a...)) }
	resumed, err := Run(context.Background(), measuredSet(t, hiddenMapping()), ropts)
	if err != nil {
		t.Fatal(err)
	}
	if !containsLog(logs, "restored checkpoint") {
		t.Errorf("island resume did not restore:\n%s", strings.Join(logs, "\n"))
	}
	sameTrajectory(t, "islands resumed", resumed, full)
}

// TestResumeFromUninitialisedCheckpoint: a run canceled before its
// initial population was evaluated returns no result but checkpoints
// the unevaluated islands (single and several alike); resuming from that
// checkpoint evaluates them and finishes bit-identical to an
// uninterrupted run.
func TestResumeFromUninitialisedCheckpoint(t *testing.T) {
	for _, islands := range []int{1, 3} {
		opts := ckptOpts()
		opts.Islands = islands
		full := mustRun(t, opts)

		opts.CheckpointDir = t.TempDir()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if res, err := Run(ctx, measuredSet(t, hiddenMapping()), opts); res != nil || !errors.Is(err, ErrCanceled) {
			t.Fatalf("islands=%d: canceled run = (%v, %v), want (nil, ErrCanceled)", islands, res, err)
		}

		opts.Resume = true
		var logs []string
		opts.Log = func(f string, a ...any) { logs = append(logs, fmt.Sprintf(f, a...)) }
		resumed, err := Run(context.Background(), measuredSet(t, hiddenMapping()), opts)
		if err != nil {
			t.Fatal(err)
		}
		if !containsLog(logs, "restored checkpoint at generation 0") {
			t.Errorf("islands=%d: resume did not restore the unevaluated checkpoint:\n%s", islands, strings.Join(logs, "\n"))
		}
		sameTrajectory(t, fmt.Sprintf("islands=%d", islands), resumed, full)
	}
}

// TestResumeBudgetExtension pins that a run which COMPLETED its
// generation budget checkpoints its final state, so a later resume with
// a larger MaxGenerations continues the same trajectory instead of
// restarting — MaxGenerations is deliberately excluded from the
// checkpoint content key.
func TestResumeBudgetExtension(t *testing.T) {
	opts := ckptOpts()
	full := mustRun(t, opts)

	dir := t.TempDir()
	sopts := opts
	sopts.MaxGenerations = 5
	sopts.CheckpointDir = dir
	if _, err := Run(context.Background(), measuredSet(t, hiddenMapping()), sopts); err != nil {
		t.Fatal(err)
	}

	ropts := opts // full MaxGenerations again
	ropts.CheckpointDir = dir
	ropts.Resume = true
	var logs []string
	ropts.Log = func(f string, a ...any) { logs = append(logs, fmt.Sprintf(f, a...)) }
	resumed, err := Run(context.Background(), measuredSet(t, hiddenMapping()), ropts)
	if err != nil {
		t.Fatal(err)
	}
	if !containsLog(logs, "restored checkpoint at generation 5") {
		t.Errorf("budget extension did not restore the generation-5 checkpoint:\n%s", strings.Join(logs, "\n"))
	}
	sameTrajectory(t, "budget extension", resumed, full)
}

// FuzzResumeMatchesUninterrupted is the resume contract's differential
// twin on the hiddenMapping set. It fuzzes the seed, 1-3 islands, a
// population of 4-12, the migration interval (off, the default or 1-3)
// and the generation whose barrier cancels the run. The run canceled from
// OnGeneration, resumed from its checkpoint, must end with the
// uninterrupted run's Best, BestError bits, BestVolume, Generations and
// history. A mapping that a checkpoint or a migration still references
// when a later generation recycles it would show here.
func FuzzResumeMatchesUninterrupted(f *testing.F) {
	set := measuredSet(f, hiddenMapping())
	f.Add(int64(11), uint8(0), uint8(8), uint8(0), uint8(4))
	f.Add(int64(11), uint8(2), uint8(8), uint8(3), uint8(2))
	f.Add(int64(5), uint8(1), uint8(5), uint8(2), uint8(1))
	f.Add(int64(3), uint8(2), uint8(0), uint8(0), uint8(6))
	f.Add(int64(7), uint8(2), uint8(3), uint8(1), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, islands, pop, interval, stop uint8) {
		opts := Options{
			PopulationSize:    4 + int(pop%9),
			MaxGenerations:    8,
			NumPorts:          3,
			LocalSearch:       true,
			VolumeObjective:   true,
			Seed:              seed,
			Workers:           2,
			Islands:           1 + int(islands%3),
			MigrationInterval: int(interval%5) - 1,
		}
		full, err := Run(context.Background(), set, opts)
		if err != nil {
			t.Fatal(err)
		}

		iopts := opts
		iopts.CheckpointDir = t.TempDir()
		ctx, hook := cancelAt(1 + int(stop)%opts.MaxGenerations)
		iopts.OnGeneration = hook
		if _, err := Run(ctx, set, iopts); err != nil && !errors.Is(err, ErrCanceled) {
			t.Fatalf("interrupted run: %v", err)
		}

		ropts := opts
		ropts.CheckpointDir = iopts.CheckpointDir
		ropts.Resume = true
		var logs []string
		ropts.Log = func(f string, a ...any) { logs = append(logs, fmt.Sprintf(f, a...)) }
		resumed, err := Run(context.Background(), set, ropts)
		if err != nil {
			t.Fatal(err)
		}
		if !containsLog(logs, "restored checkpoint") {
			t.Fatalf("resume did not restore the checkpoint:\n%s", strings.Join(logs, "\n"))
		}
		if got, want := mappingJSON(t, resumed.Best), mappingJSON(t, full.Best); !bytes.Equal(got, want) {
			t.Errorf("Best differs:\n%s\nvs uninterrupted\n%s", got, want)
		}
		if math.Float64bits(resumed.BestError) != math.Float64bits(full.BestError) {
			t.Errorf("BestError %v != %v", resumed.BestError, full.BestError)
		}
		if resumed.BestVolume != full.BestVolume || resumed.Generations != full.Generations {
			t.Errorf("(BestVolume, Generations) = (%d, %d), want (%d, %d)",
				resumed.BestVolume, resumed.Generations, full.BestVolume, full.Generations)
		}
		if got, want := historyDigest(resumed.History), historyDigest(full.History); got != want {
			t.Errorf("history digest %#x != %#x", got, want)
		}
	})
}

// TestResumeMissingCheckpointColdStarts: Resume against an empty
// directory must log a diagnostic and produce the cold-start result —
// never fail the run.
func TestResumeMissingCheckpointColdStarts(t *testing.T) {
	opts := ckptOpts()
	full := mustRun(t, opts)

	ropts := opts
	ropts.CheckpointDir = t.TempDir()
	ropts.Resume = true
	var logs []string
	ropts.Log = func(f string, a ...any) { logs = append(logs, fmt.Sprintf(f, a...)) }
	res, err := Run(context.Background(), measuredSet(t, hiddenMapping()), ropts)
	if err != nil {
		t.Fatal(err)
	}
	if !containsLog(logs, "cold start") {
		t.Errorf("missing checkpoint did not log a cold-start diagnostic:\n%s", strings.Join(logs, "\n"))
	}
	sameTrajectory(t, "cold start", res, full)
}

// TestResumeMismatchedOptionsColdStarts: a checkpoint written under a
// different seed (any trajectory-shaping option) or against other
// measurements must be rejected by the content key, cold-starting with a
// diagnostic rather than splicing incompatible state into the run.
func TestResumeMismatchedOptionsColdStarts(t *testing.T) {
	cases := []struct {
		name   string
		change func(*Options, *exp.Set)
	}{
		{"different seed", func(o *Options, _ *exp.Set) { o.Seed = 12 }},
		{"different experiment set", func(_ *Options, s *exp.Set) {
			tp := &s.Measurements[0].Throughput
			*tp = math.Nextafter(*tp, math.Inf(1))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			wopts := ckptOpts()
			wopts.MaxGenerations = 5
			wopts.CheckpointDir = dir
			if _, err := Run(context.Background(), measuredSet(t, hiddenMapping()), wopts); err != nil {
				t.Fatal(err)
			}

			fresh, set := ckptOpts(), measuredSet(t, hiddenMapping())
			tc.change(&fresh, set)
			full, err := Run(context.Background(), set, fresh)
			if err != nil {
				t.Fatal(err)
			}

			ropts := fresh
			ropts.CheckpointDir = dir
			ropts.Resume = true
			var logs []string
			ropts.Log = func(f string, a ...any) { logs = append(logs, fmt.Sprintf(f, a...)) }
			res, err := Run(context.Background(), set, ropts)
			if err != nil {
				t.Fatal(err)
			}
			if !containsLog(logs, "cold start") {
				t.Errorf("mismatch did not log a cold-start diagnostic:\n%s", strings.Join(logs, "\n"))
			}
			sameTrajectory(t, tc.name, res, full)
		})
	}
}

// TestResumeImplausibleDrawCountColdStarts: resume replays a
// checkpoint's RNG draws one at a time, so a checksum-valid file whose
// draw count is far beyond what its generations could have drawn must
// cold-start instead of stalling in the replay.
func TestResumeImplausibleDrawCountColdStarts(t *testing.T) {
	opts := ckptOpts()
	opts.ConvergenceEps = 1e-9 // Run's default, spelled out because the key below hashes it
	full := mustRun(t, opts)

	dir := t.TempDir()
	wopts := opts
	wopts.MaxGenerations = 5
	wopts.CheckpointDir = dir
	set := measuredSet(t, hiddenMapping())
	if _, err := Run(context.Background(), set, wopts); err != nil {
		t.Fatal(err)
	}
	key := checkpointKey(expSetFingerprint(set), opts, planIslands(opts))
	st, err := loadCheckpoint(dir, key, set.NumInsts, opts.NumPorts)
	if err != nil {
		t.Fatal(err)
	}
	st.islands[0].draws = 1 << 62
	if err := cachestore.SaveBlob(CheckpointPath(dir), cachestore.SchemaEvoCheckpoint, key,
		encodeCheckpoint(st, set.NumInsts, opts.NumPorts)); err != nil {
		t.Fatal(err)
	}

	ropts := opts
	ropts.CheckpointDir = dir
	ropts.Resume = true
	var logs []string
	ropts.Log = func(f string, a ...any) { logs = append(logs, fmt.Sprintf(f, a...)) }
	res, err := Run(context.Background(), set, ropts)
	if err != nil {
		t.Fatal(err)
	}
	if !containsLog(logs, "cold start") {
		t.Errorf("implausible draw count did not log a cold-start diagnostic:\n%s", strings.Join(logs, "\n"))
	}
	sameTrajectory(t, "implausible draw count", res, full)
}

// TestCheckpointCrashBeforeRenameKeepsLastGood injects a crash in the
// window between temp-file write and rename on every checkpoint save:
// the file on disk must keep the last successfully written state, and
// a subsequent resume must restore it.
func TestCheckpointCrashBeforeRenameKeepsLastGood(t *testing.T) {
	opts := ckptOpts()
	full := mustRun(t, opts)

	// Phase 1: write a good generation-5 checkpoint.
	dir := t.TempDir()
	sopts := opts
	sopts.MaxGenerations = 5
	sopts.CheckpointDir = dir
	if _, err := Run(context.Background(), measuredSet(t, hiddenMapping()), sopts); err != nil {
		t.Fatal(err)
	}

	// Phase 2: resume to generation 9 while every checkpoint rename
	// "crashes". The run itself must succeed (save failures are logged
	// and swallowed), and the on-disk checkpoint must stay at
	// generation 5.
	restore := faultfs.Set(&faultfs.Hooks{
		BeforeRename: func(_, newpath string) error {
			if strings.Contains(newpath, "evo-checkpoint") {
				return errors.New("injected crash before rename")
			}
			return nil
		},
	})
	mopts := opts
	mopts.MaxGenerations = 9
	mopts.CheckpointDir = dir
	mopts.Resume = true
	if _, err := Run(context.Background(), measuredSet(t, hiddenMapping()), mopts); err != nil {
		restore()
		t.Fatal(err)
	}
	restore()

	// Phase 3: resume with the full budget. The only readable
	// checkpoint is the last-good generation-5 state; the final result
	// must still be bit-identical to the uninterrupted run.
	ropts := opts
	ropts.CheckpointDir = dir
	ropts.Resume = true
	var logs []string
	ropts.Log = func(f string, a ...any) { logs = append(logs, fmt.Sprintf(f, a...)) }
	resumed, err := Run(context.Background(), measuredSet(t, hiddenMapping()), ropts)
	if err != nil {
		t.Fatal(err)
	}
	if !containsLog(logs, "restored checkpoint at generation 5") {
		t.Errorf("expected last-good generation-5 restore:\n%s", strings.Join(logs, "\n"))
	}
	sameTrajectory(t, "crash window", resumed, full)
}

// TestCheckpointTornWriteColdStarts injects a torn (truncated) write
// that still renames into place: the damaged file must be detected by
// the store's integrity checks on resume, degrading to a cold start
// with a diagnostic — never a misread.
func TestCheckpointTornWriteColdStarts(t *testing.T) {
	opts := ckptOpts()
	full := mustRun(t, opts)

	// The atomic-write temp files carry generic names, so the hook
	// tears every store write of the phase — checkpoint blob and cache
	// spills alike; all of them must degrade cleanly.
	dir := t.TempDir()
	restore := faultfs.Set(&faultfs.Hooks{
		BeforeWrite: func(_ string, data []byte) ([]byte, error) {
			return data[:len(data)/2], nil
		},
	})
	sopts := opts
	sopts.MaxGenerations = 5
	sopts.CheckpointDir = dir
	if _, err := Run(context.Background(), measuredSet(t, hiddenMapping()), sopts); err != nil {
		restore()
		t.Fatal(err)
	}
	restore()

	ropts := opts
	ropts.CheckpointDir = dir
	ropts.Resume = true
	var logs []string
	ropts.Log = func(f string, a ...any) { logs = append(logs, fmt.Sprintf(f, a...)) }
	res, err := Run(context.Background(), measuredSet(t, hiddenMapping()), ropts)
	if err != nil {
		t.Fatal(err)
	}
	if !containsLog(logs, "cold start") {
		t.Errorf("torn checkpoint did not log a cold-start diagnostic:\n%s", strings.Join(logs, "\n"))
	}
	sameTrajectory(t, "torn write", res, full)
}

// TestPlanCheckpointIntervalClamping pins the clamp-at-the-seam
// convention for the new knob (satellite: flag validation).
func TestPlanCheckpointIntervalClamping(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, defaultCheckpointInterval},
		{-1, -1},
		{-100, -1},
		{1, 1},
		{25, 25},
	}
	for _, c := range cases {
		if got := planCheckpointInterval(Options{CheckpointInterval: c.in}); got != c.want {
			t.Errorf("planCheckpointInterval(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func containsLog(logs []string, substr string) bool {
	for _, l := range logs {
		if strings.Contains(l, substr) {
			return true
		}
	}
	return false
}

// TestDecodeCheckpointRejectsInconsistentCounters: the decoder accepts
// only counters an encoder can write. Each corruption below used to
// decode and would have resumed a corrupt trajectory; every one must
// now fail with a nil state, while the untouched state round-trips.
func TestDecodeCheckpointRejectsInconsistentCounters(t *testing.T) {
	valid := func() *ckptState {
		return &ckptState{islands: []ckptIsland{{
			draws:      40,
			gens:       2,
			epochStart: 2,
			inited:     true,
			history:    []GenStats{{Generation: 0, BestError: 0.5, BestVolume: 5, MeanError: 0.6}, {Generation: 1, BestError: 0.4, BestVolume: 5, MeanError: 0.5}},
			pop:        []individual{{m: hiddenMapping(), davg: 0.4, volume: 5}},
		}}}
	}
	payload := encodeCheckpoint(valid(), 4, 3)
	st, err := decodeCheckpoint(payload, 4, 3)
	if err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
	if again := encodeCheckpoint(st, 4, 3); !bytes.Equal(again, payload) {
		t.Fatal("valid state does not round-trip")
	}

	cases := []struct {
		name    string
		corrupt func(*ckptIsland)
	}{
		{"gens at or above 2^63 decodes negative", func(isl *ckptIsland) { isl.gens = math.MinInt64; isl.epochStart = 0 }},
		{"history shorter than gens", func(isl *ckptIsland) { isl.history = isl.history[:1] }},
		{"history longer than gens", func(isl *ckptIsland) { isl.gens, isl.epochStart = 1, 1 }},
		{"epoch start beyond gens", func(isl *ckptIsland) { isl.epochStart = 3 }},
		{"negative epoch start", func(isl *ckptIsland) { isl.epochStart = -1 }},
		{"generations before initialisation", func(isl *ckptIsland) { isl.inited = false }},
		{"draw count beyond the replay bound", func(isl *ckptIsland) { isl.draws = 1 << 62 }},
		{"non-canonical decomposition", func(isl *ckptIsland) {
			m := isl.pop[0].m.Clone()
			m.Decomp[0] = []portmap.UopCount{{Ports: portmap.MakePortSet(0), Count: 1}, {Ports: portmap.MakePortSet(0), Count: 1}}
			isl.pop[0].m = m
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := valid()
			tc.corrupt(&bad.islands[0])
			st, err := decodeCheckpoint(encodeCheckpoint(bad, 4, 3), 4, 3)
			if err == nil {
				t.Fatal("corrupt checkpoint decoded without error")
			}
			if st != nil {
				t.Fatalf("error %v came with a non-nil state", err)
			}
		})
	}
}

// FuzzDecodeCheckpoint feeds arbitrary payloads to the checkpoint
// decoder at the hiddenMapping geometry (4 instructions, 3 ports). The
// decoder must never panic and must pair every error with a nil state,
// and every state it accepts must re-encode to a fixed point: the
// re-encoded bytes decode again and re-encode unchanged. The seed corpus
// in testdata/fuzz/FuzzDecodeCheckpoint holds real checkpoint payloads
// (see TestDecodeCheckpointSeedCorpus).
func FuzzDecodeCheckpoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		st, err := decodeCheckpoint(payload, 4, 3)
		if err != nil {
			if st != nil {
				t.Fatalf("error %v came with a non-nil state", err)
			}
			return
		}
		enc := encodeCheckpoint(st, 4, 3)
		st2, err := decodeCheckpoint(enc, 4, 3)
		if err != nil {
			t.Fatalf("re-encoded state does not decode: %v", err)
		}
		if again := encodeCheckpoint(st2, 4, 3); !bytes.Equal(again, enc) {
			t.Fatal("re-encoding is not a fixed point")
		}
	})
}

// TestDecodeCheckpointSeedCorpus keeps the fuzz seed corpus in step with
// the payload format, so the fuzzer starts from payloads that get past
// the header. The seeds are checkpoints written by Run on the
// hiddenMapping set with PopulationSize 4, MaxGenerations 2, Seed 1:
// one island; three islands of 2 with MigrationInterval 1; one island
// whose context was canceled before the initial population was
// evaluated; and the one-island payload cut in half and with three bytes
// appended. After a payload format change, regenerate them the same way.
func TestDecodeCheckpointSeedCorpus(t *testing.T) {
	cases := []struct {
		name    string
		islands int  // 0: must not decode
		inited  bool // of every island
	}{
		{"one-island", 1, true},
		{"three-islands", 3, true},
		{"uninitialised-island", 1, false},
		{"truncated", 0, false},
		{"trailing-bytes", 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDecodeCheckpoint", tc.name))
			if err != nil {
				t.Fatal(err)
			}
			body, found := strings.CutPrefix(string(raw), "go test fuzz v1\n[]byte(")
			lit, closed := strings.CutSuffix(body, ")\n")
			payload, err := strconv.Unquote(lit)
			if !found || !closed || err != nil {
				t.Fatalf("not a one-value []byte fuzz corpus file (%v):\n%s", err, raw)
			}
			st, err := decodeCheckpoint([]byte(payload), 4, 3)
			if tc.islands == 0 {
				if err == nil {
					t.Fatal("damaged seed decoded")
				}
				return
			}
			if err != nil {
				t.Fatalf("seed no longer decodes (stale after a format change?): %v", err)
			}
			if len(st.islands) != tc.islands {
				t.Fatalf("seed has %d islands, want %d", len(st.islands), tc.islands)
			}
			for k, isl := range st.islands {
				if isl.inited != tc.inited {
					t.Errorf("island %d: inited = %v, want %v", k, isl.inited, tc.inited)
				}
			}
		})
	}
}

// TestExpSetFingerprintSensitivity: the checkpoint key's experiment-set
// part must change when any component of the set changes — instruction
// count, individual throughputs, terms, or the exact bits of a measured
// throughput.
func TestExpSetFingerprintSensitivity(t *testing.T) {
	base := &exp.Set{
		NumInsts:   2,
		Individual: []float64{1, 2},
		Measurements: []exp.Measurement{
			{Exp: portmap.Experiment{{Inst: 0, Count: 1}}, Throughput: 1},
			{Exp: portmap.Experiment{{Inst: 1, Count: 2}}, Throughput: 2},
		},
	}
	fp := expSetFingerprint(base)
	mutations := []func(*exp.Set){
		func(s *exp.Set) { s.NumInsts = 3 },
		func(s *exp.Set) { s.Individual[1] = 2.5 },
		func(s *exp.Set) { s.Measurements[0].Throughput = 1.0000000001 },
		func(s *exp.Set) { s.Measurements[1].Exp[0].Count = 3 },
		func(s *exp.Set) { s.Measurements[1].Exp[0].Inst = 0 },
		func(s *exp.Set) { s.Measurements = s.Measurements[:1] },
	}
	for i, mutate := range mutations {
		clone := &exp.Set{
			NumInsts:   base.NumInsts,
			Individual: append([]float64(nil), base.Individual...),
		}
		for _, m := range base.Measurements {
			clone.Measurements = append(clone.Measurements, exp.Measurement{
				Exp:        append(portmap.Experiment(nil), m.Exp...),
				Throughput: m.Throughput,
			})
		}
		mutate(clone)
		if expSetFingerprint(clone) == fp {
			t.Errorf("mutation %d did not change the set fingerprint", i)
		}
	}
}

// TestCheckpointKeyPinned pins the checkpoint content key of one fixed
// experiment set and option set, every trajectory-shaping option away
// from its default, to the value computed before the MaxUopsPerInst
// option was retired (its slot now hashes the constant 0). A change to
// the key makes every existing checkpoint cold-start; bump
// ckptPayloadVersion on purpose instead of changing it by accident.
func TestCheckpointKeyPinned(t *testing.T) {
	set := measuredSet(t, hiddenMapping())
	eng, err := engine.ByName("union")
	if err != nil {
		t.Fatal(err)
	}
	opts := smallOpts()
	opts.Seed = 11
	opts.MutationRate = 0.05
	opts.AccuracyWeight = 2
	opts.Islands = 3
	opts.MigrationInterval = 4
	opts.MigrationCount = 2
	opts.ConvergenceEps = 1e-9
	opts.SeedMappings = []*portmap.Mapping{hiddenMapping()}
	opts.Engine = eng
	fp := expSetFingerprint(set)
	if fp != 0x83a165505c13c93d {
		t.Errorf("expSetFingerprint = %#x, want 0x83a165505c13c93d", fp)
	}
	if key := checkpointKey(fp, opts, planIslands(opts)); key != 0x54d062563e379ebf {
		t.Errorf("checkpointKey = %#x, want 0x54d062563e379ebf", key)
	}
}
