package eval

import (
	"context"
	"fmt"

	"pmevo/internal/core"
	"pmevo/internal/evo"
	"pmevo/internal/isa"
	"pmevo/internal/measure"
	"pmevo/internal/portmap"
	"pmevo/internal/uarch"
)

// translateExperiment maps instruction indices through ids.
func translateExperiment(e portmap.Experiment, ids []int) portmap.Experiment {
	out := make(portmap.Experiment, len(e))
	for i, t := range e {
		out[i] = portmap.InstCount{Inst: ids[t.Inst], Count: t.Count}
	}
	return out
}

// PipelineRun is a complete PMEvo inference against one virtual
// processor at a given scale.
type PipelineRun struct {
	Proc *uarch.Processor
	// SubISA is the (possibly class-stratified) instruction subset the
	// pipeline ran on; FormIDs maps its form IDs to the processor ISA.
	SubISA  *isa.ISA
	FormIDs []int
	// Harness is the measurement harness used (its accounting feeds the
	// Table 2 benchmarking-time row).
	Harness *measure.Harness
	// Result is the inference outcome; Result.Mapping is in subset
	// instruction space.
	Result *core.Result
}

// RunPipeline executes the full PMEvo pipeline for the named processor.
//
// ctx cancellation and deadlines propagate into measurement and the
// evolutionary search (core.Infer): an interruption during the search
// returns the typed evo.ErrCanceled/ErrDeadline along with a
// PipelineRun built from the best mapping found so far, so callers can
// checkpoint-and-report rather than lose the run. Scale.CheckpointDir /
// Resume plumb crash-safe checkpointing through to evo.
func RunPipeline(ctx context.Context, procName string, scale Scale) (*PipelineRun, error) {
	if err := scale.Validate(); err != nil {
		return nil, err
	}
	proc, err := uarch.ByName(procName)
	if err != nil {
		return nil, err
	}
	sub, ids, err := SubsetForms(proc.ISA, scale.MaxFormsPerClass)
	if err != nil {
		return nil, err
	}

	mopts := measure.DefaultOptions()
	mopts.Seed = scale.Seed
	h, err := measure.NewHarness(proc, mopts)
	if err != nil {
		return nil, err
	}

	cfg := core.DefaultConfig(proc.Config.NumPorts)
	cfg.PortNames = proc.PortNames
	cfg.Evo = evo.Options{
		PopulationSize:     scale.Population,
		MaxGenerations:     scale.MaxGenerations,
		NumPorts:           proc.Config.NumPorts,
		LocalSearch:        true,
		VolumeObjective:    true,
		Seed:               scale.Seed,
		Islands:            scale.Islands,
		MigrationInterval:  scale.MigrationInterval,
		MigrationCount:     scale.MigrationCount,
		CheckpointDir:      scale.CheckpointDir,
		CheckpointInterval: scale.CheckpointInterval,
		Resume:             scale.Resume,
		Log:                scale.Log,
	}

	res, err := core.Infer(ctx, sub, measure.SubsetMeasurer{H: h, IDs: ids}, cfg)
	if err != nil && !(evo.Interrupted(err) && res != nil) {
		return nil, fmt.Errorf("eval: inference on %s failed: %w", procName, err)
	}
	return &PipelineRun{
		Proc:    proc,
		SubISA:  sub,
		FormIDs: ids,
		Harness: h,
		Result:  res,
	}, err
}
