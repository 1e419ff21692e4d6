package evo

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// checkGoroutines asserts the goroutine count settles back to (near)
// base after a canceled run — no worker may outlive Run.
func checkGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak after cancellation: %d > base %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// wellFormedPartial asserts the partial-result contract: a valid best
// mapping, History consistent with Generations, and a history that is
// an exact prefix of the uninterrupted run's.
func wellFormedPartial(t *testing.T, label string, partial, full *Result) {
	t.Helper()
	if partial == nil || partial.Best == nil {
		t.Fatalf("%s: no partial result", label)
	}
	if err := partial.Best.Validate(); err != nil {
		t.Fatalf("%s: partial best invalid: %v", label, err)
	}
	historyPrefix(t, label, partial, full)
}

// TestCancelMidRunPartialResult cancels a single-population run at
// several generation boundaries (via the OnGeneration hook, the
// deterministic cancellation point) and checks the typed error, the
// partial-result shape, and that no goroutines leak. Run under -race
// this also exercises the pool shutdown paths.
func TestCancelMidRunPartialResult(t *testing.T) {
	opts := ckptOpts()
	opts.Workers = 4
	full := mustRun(t, opts)
	base := runtime.NumGoroutine()

	for _, g := range []int{1, 3, 7} {
		ctx, hook := cancelAt(g)
		copts := opts
		copts.OnGeneration = hook
		partial, err := Run(ctx, measuredSet(t, hiddenMapping()), copts)
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("cancel@%d: err = %v, want ErrCanceled", g, err)
		}
		if !Interrupted(err) {
			t.Fatalf("cancel@%d: Interrupted(err) = false", g)
		}
		if partial.Generations != g {
			t.Errorf("cancel@%d: Generations = %d, want %d", g, partial.Generations, g)
		}
		wellFormedPartial(t, "cancel", partial, full)
	}
	checkGoroutines(t, base)
}

// TestCancelIslandsPartialResult does the same for the island model:
// cancellation at an epoch barrier with islands fanned out over
// workers must return a well-formed combined best and leave no
// goroutines behind.
func TestCancelIslandsPartialResult(t *testing.T) {
	opts := ckptOpts()
	opts.Workers = 4
	opts.Islands = 3
	opts.MigrationInterval = 2
	full := mustRun(t, opts)
	base := runtime.NumGoroutine()

	ctx, hook := cancelAt(4)
	copts := opts
	copts.OnGeneration = hook
	partial, err := Run(ctx, measuredSet(t, hiddenMapping()), copts)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if partial.Generations != 4 {
		t.Errorf("Generations = %d, want 4 (canceled after barrier 4)", partial.Generations)
	}
	wellFormedPartial(t, "islands", partial, full)
	checkGoroutines(t, base)
}

// TestCancelDuringLocalSearch cancels after the last generation
// completes, so the interruption lands in the local-search phase: the
// partial result must carry the full generational history plus the
// typed error.
func TestCancelDuringLocalSearch(t *testing.T) {
	opts := ckptOpts()
	full := mustRun(t, opts)

	ctx, hook := cancelAt(full.Generations) // fires after the final generation
	copts := opts
	copts.OnGeneration = hook
	partial, err := Run(ctx, measuredSet(t, hiddenMapping()), copts)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	wellFormedPartial(t, "local search", partial, full)
	if partial.Generations != full.Generations {
		t.Errorf("Generations = %d, want %d", partial.Generations, full.Generations)
	}
}

// TestDeadlineTyped: an expired deadline surfaces as ErrDeadline (not
// ErrCanceled), before any work happens — so no partial result exists.
func TestDeadlineTyped(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := Run(ctx, measuredSet(t, hiddenMapping()), ckptOpts())
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if errors.Is(err, ErrCanceled) {
		t.Fatal("deadline expiry must not also match ErrCanceled")
	}
	if res != nil {
		t.Fatalf("pre-start deadline returned a result: %+v", res)
	}
}

// TestCancelBeforeStart: an already-canceled context returns
// ErrCanceled with no result.
func TestCancelBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, measuredSet(t, hiddenMapping()), ckptOpts())
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if res != nil {
		t.Fatalf("pre-start cancellation returned a result: %+v", res)
	}
}
