package eval

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestRunEvoBenchQuick(t *testing.T) {
	scale := QuickScale()
	// Keep the smoke test fast: a small amplified population still
	// exercises both configurations end to end.
	scale.Population = 8
	scale.MaxGenerations = 6
	scale.Islands = 3
	res, err := RunEvoBench(context.Background(), scale)
	if err != nil {
		t.Fatal(err)
	}
	if res.Islands != 3 {
		t.Errorf("islands = %d, want 3", res.Islands)
	}
	if res.Population != 8*evoBenchPopFactor {
		t.Errorf("population = %d, want %d", res.Population, 8*evoBenchPopFactor)
	}
	budget := res.Population * (scale.MaxGenerations + 1)
	for name, run := range map[string]EvoBenchRun{"single": res.Single, "islands": res.Island} {
		if run.Evaluations < res.Population || run.Evaluations > budget {
			t.Errorf("%s: %d evaluations outside [population, budget] = [%d, %d]",
				name, run.Evaluations, res.Population, budget)
		}
		if run.Seconds <= 0 {
			t.Errorf("%s: non-positive wall time %v", name, run.Seconds)
		}
		if run.BestError < 0 || run.BestVolume <= 0 {
			t.Errorf("%s: implausible result Davg=%v V=%d", name, run.BestError, run.BestVolume)
		}
	}
	out := res.Render()
	if !strings.Contains(out, "single") || !strings.Contains(out, "islands") ||
		!strings.Contains(out, "speedup") {
		t.Errorf("render missing rows:\n%s", out)
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Count(buf.String(), "\n") != 3 {
		t.Errorf("CSV line count wrong:\n%s", buf.String())
	}
}
