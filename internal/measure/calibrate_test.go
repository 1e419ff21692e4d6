package measure

import (
	"testing"

	"pmevo/internal/portmap"
	"pmevo/internal/uarch"
)

func TestCalibrateSelectsStableBudget(t *testing.T) {
	proc := uarch.SKL()
	opts := DefaultOptions()
	opts.NoiseSigma = 0
	h, err := NewHarness(proc, opts)
	if err != nil {
		t.Fatal(err)
	}
	add, _ := proc.ISA.FormByName("add_r64_r64")
	mul, _ := proc.ISA.FormByName("imul_r64_r64")
	probes := []portmap.Experiment{
		{{Inst: add.ID, Count: 1}},
		{{Inst: add.ID, Count: 1}, {Inst: mul.ID, Count: 1}},
	}
	res, err := h.Calibrate(probes, 3, 0.01, 8, 512)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeasureIters < 8 || res.MeasureIters > 512 {
		t.Errorf("selected budget %d out of range", res.MeasureIters)
	}
	if res.Spread > 0.01 && res.MeasureIters < 512 {
		t.Errorf("calibration stopped at spread %g without exhausting budget", res.Spread)
	}
	if len(res.Steps) == 0 {
		t.Error("no calibration steps recorded")
	}
	if h.MeasureIters() != res.MeasureIters {
		t.Error("harness not updated with calibrated budget")
	}
	// Spreads must be recorded monotonically in iterations.
	for i := 1; i < len(res.Steps); i++ {
		if res.Steps[i].Iters <= res.Steps[i-1].Iters {
			t.Errorf("non-increasing iteration steps: %v", res.Steps)
		}
	}
}

func TestCalibrateValidation(t *testing.T) {
	proc := uarch.SKL()
	h, err := NewHarness(proc, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	probe := []portmap.Experiment{{{Inst: 0, Count: 1}}}
	cases := []struct {
		name string
		call func() error
	}{
		{"no probes", func() error { _, err := h.Calibrate(nil, 3, 0.01, 8, 64); return err }},
		{"one probe rep", func() error { _, err := h.Calibrate(probe, 1, 0.01, 8, 64); return err }},
		{"zero tol", func() error { _, err := h.Calibrate(probe, 3, 0, 8, 64); return err }},
		{"bad iters", func() error { _, err := h.Calibrate(probe, 3, 0.01, 64, 8); return err }},
	}
	for _, tc := range cases {
		if tc.call() == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestCalibrateStopsAtMaxIters(t *testing.T) {
	proc := uarch.A72()
	opts := DefaultOptions()
	opts.NoiseSigma = 0
	h, err := NewHarness(proc, opts)
	if err != nil {
		t.Fatal(err)
	}
	probe := []portmap.Experiment{{{Inst: 0, Count: 1}}}
	// An impossible tolerance forces the sweep to its cap.
	res, err := h.Calibrate(probe, 3, 1e-12, 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeasureIters != 32 && res.Spread > 1e-12 {
		t.Errorf("expected cap 32, got %d (spread %g)", res.MeasureIters, res.Spread)
	}
}
