package eval

import (
	"context"
	"testing"

	"pmevo/internal/measure"
)

// TestMeasureBenchWarmStartRoundTrip is the driver-level pin of the
// acceptance criterion: a measurement bench warm-started from a spill
// file written by an earlier ("cold") invocation must report a nonzero
// disk-warm hit rate and — enforced inside the driver against the
// brute-force baseline — bit-identical measurements. The fresh process
// is simulated by flushing the in-memory cache between the two phases.
func TestMeasureBenchWarmStartRoundTrip(t *testing.T) {
	scale := QuickScale()
	dir := t.TempDir()

	// Pollute the process-wide cache: entries earlier drivers paid for
	// must not leak into the benchmark's attribution (the driver
	// flushes and reloads exactly the spill file).
	if _, err := runMeasureBenchArch(context.Background(), "A72", scale, ""); err != nil {
		t.Fatal(err)
	}

	cold, err := runMeasureBenchArch(context.Background(), "A72", scale, dir) // no spill file yet
	if err != nil {
		t.Fatal(err)
	}
	if cold.Fast.SimWarmHits != 0 {
		t.Fatalf("cold run reported %d disk-warm hits", cold.Fast.SimWarmHits)
	}
	if cold.Fast.SimMisses == 0 {
		t.Fatal("cold run paid for nothing; pollution from the earlier run leaked in")
	}

	measure.FlushSimCache() // "new process"
	warm, err := runMeasureBenchArch(context.Background(), "A72", scale, dir)
	if err != nil {
		t.Fatal(err) // includes the in-driver fast-vs-baseline bit-equality check
	}
	if warm.Fast.SimWarmHits == 0 {
		t.Error("warm run reported no disk-warm hits")
	}
	// A bucket holds four keys and a fifth evicts one, so the spill need
	// not be a complete kernel set — but the warm start must eliminate
	// the bulk of the cold run's simulations.
	if warm.Fast.SimMisses*10 >= cold.Fast.SimMisses {
		t.Errorf("warm run misses %d not well below cold misses %d",
			warm.Fast.SimMisses, cold.Fast.SimMisses)
	}
	measure.FlushSimCache() // leave no warm state behind for other tests
}
