package engine

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"pmevo/internal/portmap"
	"pmevo/internal/runctrl"
)

// TestForEachWorkerCtxCancel: once the context is canceled, no further
// indices start, in-flight invocations complete (the counter is
// consistent), and the pool returns the typed error.
func TestForEachWorkerCtxCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started, atCancel atomic.Int64
	const n, workers = 10000, 4
	err := ForEachWorkerCtx(ctx, n, workers, func(_, i int) {
		if started.Add(1) == 50 {
			cancel()
			atCancel.Store(started.Load())
		}
	})
	if !errors.Is(err, runctrl.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	got := started.Load()
	if got >= n {
		t.Fatalf("all %d indices ran despite cancellation", n)
	}
	// Other workers may start any number of indices between the 50th
	// start and the cancel call, depending on the schedule. Once cancel
	// has returned, though, every claim checks ctx first, so each other
	// worker starts at most the one index it claimed before the check.
	if after := got - atCancel.Load(); after > workers-1 {
		t.Fatalf("%d indices started after cancel returned (%d in all), want at most %d", after, got, workers-1)
	}
}

// TestForEachWorkerCtxDeadline maps an expired deadline onto
// ErrDeadline, distinct from ErrCanceled.
func TestForEachWorkerCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	ran := 0
	err := ForEachWorkerCtx(ctx, 100, 1, func(_, i int) { ran++ })
	if !errors.Is(err, runctrl.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if ran != 0 {
		t.Fatalf("%d indices ran under an expired deadline", ran)
	}
}

// TestForEachWorkerCtxComplete: a live context runs every index exactly
// once and returns nil.
func TestForEachWorkerCtxComplete(t *testing.T) {
	const n = 500
	seen := make([]atomic.Int32, n)
	if err := ForEachWorkerCtx(context.Background(), n, 4, func(_, i int) {
		seen[i].Add(1)
	}); err != nil {
		t.Fatal(err)
	}
	for i := range seen {
		if c := seen[i].Load(); c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
}

// TestForEachWorkerErrCtxTaskErrorOutranksCancel: a real task failure
// must not be masked by a concurrent cancellation.
func TestForEachWorkerErrCtxTaskErrorOutranksCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	boom := errors.New("boom")
	err := ForEachWorkerErrCtx(ctx, 100, 2, func(_, i int) error {
		if i == 3 {
			cancel()
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the task error", err)
	}
}

// TestEvaluateAllCanceled: a canceled context stops the batch with the
// typed error; a live one fills every slot.
func TestEvaluateAllCanceled(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	_, set := measuredSet(t, rng, 8, 3)
	svc, err := NewService(set, ServiceOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ms := make([]*portmap.Mapping, 64)
	for i := range ms {
		ms[i] = portmap.Random(rng, portmap.RandomOptions{NumInsts: 8, NumPorts: 3, MaxUops: 3})
	}
	out := make([]Fitness, len(ms))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := svc.EvaluateAll(ctx, ms, out); !errors.Is(err, runctrl.ErrCanceled) {
		t.Fatalf("canceled EvaluateAll: err = %v, want ErrCanceled", err)
	}

	if err := svc.EvaluateAll(context.Background(), ms, out); err != nil {
		t.Fatal(err)
	}
	for i, f := range out {
		if f.Davg < 0 || f.Volume <= 0 {
			t.Fatalf("slot %d not filled: %+v", i, f)
		}
	}
}
