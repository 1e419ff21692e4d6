package eval

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestTable1ContainsPaperRows(t *testing.T) {
	out := Table1()
	for _, want := range []string{
		"SKL", "ZEN", "A72",
		"Intel", "AMD", "RockChip",
		"Skylake", "Zen+", "Cortex-A72",
		"8 + DIV", "10", "7 + BR",
		"3.4 GHz", "3.6 GHz", "1.8 GHz",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestScaleValidate(t *testing.T) {
	for _, s := range []Scale{DefaultScale(), QuickScale(), FullScale()} {
		if err := s.Validate(); err != nil {
			t.Errorf("scale %+v invalid: %v", s, err)
		}
	}
	bad := QuickScale()
	bad.Population = 0
	if err := bad.Validate(); err == nil {
		t.Error("invalid scale accepted")
	}
}

func TestSubsetFormsStratified(t *testing.T) {
	run, err := RunPipeline(context.Background(), "SKL", QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	// One form per class at QuickScale.
	classes := run.Proc.ISA.Classes()
	if run.SubISA.NumForms() != len(classes) {
		t.Errorf("subset has %d forms for %d classes", run.SubISA.NumForms(), len(classes))
	}
	// FormIDs must point back to forms with identical names.
	for i, f := range run.SubISA.Forms() {
		orig := run.Proc.ISA.Form(run.FormIDs[i])
		if orig.Name() != f.Name() {
			t.Errorf("subset form %d = %q, original %q", i, f.Name(), orig.Name())
		}
	}
	if err := run.Result.Mapping.Validate(); err != nil {
		t.Errorf("inferred mapping invalid: %v", err)
	}
}

func TestRunPipelineUnknownProcessor(t *testing.T) {
	if _, err := RunPipeline(context.Background(), "P4", QuickScale()); err == nil {
		t.Error("unknown processor accepted")
	}
}

func TestFigure6Shape(t *testing.T) {
	scale := QuickScale()
	scale.Figure6MaxLen = 5
	res, err := RunFigure6(context.Background(), scale)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Lengths) != 5 {
		t.Fatalf("got %d lengths", len(res.Lengths))
	}
	// Qualitative claim of Figure 6: the error for short experiments is
	// small (model holds) and grows with length.
	if res.MAPEUopsInfo[0] > 8 {
		t.Errorf("length-1 MAPE %.1f%% too high; model should fit singletons", res.MAPEUopsInfo[0])
	}
	if res.MAPEUopsInfo[len(res.MAPEUopsInfo)-1] < res.MAPEUopsInfo[0] {
		t.Errorf("MAPE should grow with length: %v", res.MAPEUopsInfo)
	}
	out := res.Render()
	if !strings.Contains(out, "Figure 6") || !strings.Contains(out, "uops.info") {
		t.Errorf("render missing headers:\n%s", out)
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 6 {
		t.Errorf("CSV has %d lines, want 6", lines)
	}
}

func TestSuiteTables(t *testing.T) {
	suite, err := NewSuite(context.Background(), QuickScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := suite.Table2()
	if len(rows) != 3 {
		t.Fatalf("Table 2 has %d rows", len(rows))
	}
	for _, r := range rows {
		if r.BenchmarkingHours <= 0 {
			t.Errorf("%s: non-positive benchmarking time", r.Arch)
		}
		if r.NumUops < 1 {
			t.Errorf("%s: no µops", r.Arch)
		}
		if r.CongruentPct < 0 || r.CongruentPct >= 100 {
			t.Errorf("%s: congruent pct %.1f out of range", r.Arch, r.CongruentPct)
		}
	}
	out := RenderTable2(rows)
	for _, want := range []string{"benchmarking time", "inference time", "insns found congruent", "number of µops"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 render missing %q:\n%s", want, out)
		}
	}

	acc, err := suite.Accuracy(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// SKL: 5 tools; ZEN: 2; A72: 2.
	if len(acc.rowsFor("SKL")) != 5 {
		t.Errorf("SKL has %d tools, want 5", len(acc.rowsFor("SKL")))
	}
	if len(acc.rowsFor("ZEN")) != 2 || len(acc.rowsFor("A72")) != 2 {
		t.Errorf("ZEN/A72 tool counts wrong")
	}

	// Qualitative Table 4 claim: PMEvo clearly beats llvm-mca on ZEN and
	// A72.
	for _, arch := range []string{"ZEN", "A72"} {
		var pmevo, mca float64
		for _, row := range acc.rowsFor(arch) {
			switch row.Tool {
			case "PMEvo":
				pmevo = row.MAPE
			case "llvm-mca":
				mca = row.MAPE
			}
		}
		if pmevo >= mca {
			t.Errorf("%s: PMEvo MAPE %.1f%% should beat llvm-mca %.1f%%", arch, pmevo, mca)
		}
	}

	// Qualitative Table 3 claim: Ithemal is far worse than the
	// port-mapping-based tools on dependency-free experiments.
	var ithemal, uopsinfo float64
	for _, row := range acc.rowsFor("SKL") {
		switch row.Tool {
		case "Ithemal":
			ithemal = row.MAPE
		case "uops.info":
			uopsinfo = row.MAPE
		}
	}
	if ithemal < 2*uopsinfo {
		t.Errorf("Ithemal MAPE %.1f%% should be much worse than uops.info %.1f%%", ithemal, uopsinfo)
	}

	t3 := acc.RenderTable3()
	for _, want := range []string{"PMEvo", "uops.info", "IACA", "llvm-mca", "Ithemal"} {
		if !strings.Contains(t3, want) {
			t.Errorf("Table 3 missing %q:\n%s", want, t3)
		}
	}
	t4 := acc.RenderTable4()
	if !strings.Contains(t4, "PMEvo (ZEN)") || !strings.Contains(t4, "llvm-mca (A72)") {
		t.Errorf("Table 4 render wrong:\n%s", t4)
	}
	f7 := acc.RenderFigure7()
	if strings.Count(f7, "---") < 9 {
		t.Errorf("Figure 7 should have 9 panels:\n%s", f7[:200])
	}
	var buf bytes.Buffer
	if err := acc.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "arch,tool,") {
		t.Error("accuracy CSV header missing")
	}
}

func TestFigure8ShapesAndCrossCheck(t *testing.T) {
	scale := QuickScale()
	res, err := RunFigure8(scale)
	if err != nil {
		t.Fatal(err) // includes the engine cross-check
	}
	if len(res.PortSweep) != 17 { // ports 4..20
		t.Fatalf("port sweep has %d points", len(res.PortSweep))
	}
	if len(res.LengthSweep) != 10 {
		t.Fatalf("length sweep has %d points", len(res.LengthSweep))
	}
	// Qualitative Figure 8 claim: at realistic port counts (≤ 10) the
	// bottleneck algorithm is much faster than the LP solver.
	for _, p := range res.PortSweep {
		if p.X > 10 {
			continue
		}
		if p.BottleneckSec >= p.LPSec {
			t.Errorf("ports=%d: bottleneck %.3g s not faster than LP %.3g s",
				p.X, p.BottleneckSec, p.LPSec)
		}
	}
	out := res.Render()
	if !strings.Contains(out, "Figure 8a") || !strings.Contains(out, "Figure 8b") {
		t.Errorf("render missing sections:\n%s", out)
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 1+17+10 {
		t.Errorf("CSV has %d lines", lines)
	}
}
