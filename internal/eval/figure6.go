package eval

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"strings"

	"pmevo/internal/exp"
	"pmevo/internal/measure"
	"pmevo/internal/portmap"
	"pmevo/internal/predictors"
	"pmevo/internal/stats"
	"pmevo/internal/uarch"
)

// Figure6Result holds the model-validation sweep of paper Figure 6: the
// MAPE of the ground-truth port mapping ("uops.info") and of the
// IACA-style predictor against measurements, for experiment lengths
// 1..MaxLen on SKL.
type Figure6Result struct {
	Lengths      []int
	MAPEUopsInfo []float64
	MAPEIACA     []float64
	Samples      []int
}

// RunFigure6 measures the sweep.
func RunFigure6(ctx context.Context, scale Scale) (*Figure6Result, error) {
	if err := scale.Validate(); err != nil {
		return nil, err
	}
	proc := uarch.SKL()
	mopts := measure.DefaultOptions()
	mopts.Seed = scale.Seed
	h, err := measure.NewHarness(proc, mopts)
	if err != nil {
		return nil, err
	}
	ui, err := predictors.UopsInfo(proc)
	if err != nil {
		return nil, err
	}
	iaca, err := predictors.IACA(proc)
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(scale.Seed + 6))
	res := &Figure6Result{}
	for length := 1; length <= scale.Figure6MaxLen; length++ {
		var es []portmap.Experiment
		if length == 1 {
			// Length 1: the set of all supported instructions (§5.2).
			es = exp.Singletons(proc.ISA.NumForms())
			if scale.MaxFormsPerClass > 0 {
				_, ids, err := SubsetForms(proc.ISA, scale.MaxFormsPerClass)
				if err != nil {
					return nil, err
				}
				es = es[:0]
				for _, id := range ids {
					es = append(es, portmap.Experiment{{Inst: id, Count: 1}})
				}
			}
		} else {
			es = exp.RandomBenchmarkSet(rng, proc.ISA.NumForms(), scale.Figure6Samples, length)
		}
		meas, err := h.MeasureAll(ctx, es)
		if err != nil {
			return nil, err
		}
		predUI := make([]float64, len(es))
		if err := predictors.PredictAll(ui, es, predUI); err != nil {
			return nil, err
		}
		predIACA := make([]float64, len(es))
		if err := predictors.PredictAll(iaca, es, predIACA); err != nil {
			return nil, err
		}
		res.Lengths = append(res.Lengths, length)
		res.MAPEUopsInfo = append(res.MAPEUopsInfo, stats.MAPE(predUI, meas))
		res.MAPEIACA = append(res.MAPEIACA, stats.MAPE(predIACA, meas))
		res.Samples = append(res.Samples, len(es))
	}
	return res, nil
}

// Render draws the figure as a text table.
func (r *Figure6Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 6. MAPE of ground-truth simulation (uops.info) and IACA\n")
	b.WriteString("vs. measurements, by experiment length (SKL)\n\n")
	b.WriteString("length  samples  uops.info MAPE  IACA MAPE\n")
	for i, l := range r.Lengths {
		fmt.Fprintf(&b, "%6d  %7d  %13.1f%%  %8.1f%%\n",
			l, r.Samples[i], r.MAPEUopsInfo[i], r.MAPEIACA[i])
	}
	return b.String()
}

// WriteCSV emits the series for plotting.
func (r *Figure6Result) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "length,samples,mape_uopsinfo,mape_iaca"); err != nil {
		return err
	}
	for i, l := range r.Lengths {
		if _, err := fmt.Fprintf(w, "%d,%d,%.4f,%.4f\n",
			l, r.Samples[i], r.MAPEUopsInfo[i], r.MAPEIACA[i]); err != nil {
			return err
		}
	}
	return nil
}
