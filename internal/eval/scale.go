// Package eval regenerates every table and figure of the paper's
// evaluation (§5): processor overview (Table 1), model validation over
// experiment lengths (Figure 6), PMEvo mapping characteristics (Table 2),
// prediction accuracy against the baseline tools (Tables 3 and 4,
// Figure 7), and the bottleneck-algorithm performance study (Figure 8).
//
// The paper's full runs use a population of 100,000, benchmark sets of
// 40,000 experiments, and days of measurement time. Every driver here
// takes a Scale that reproduces the experiments shape-faithfully at
// configurable cost; FullScale() restores the paper's parameters.
package eval

import (
	"fmt"

	"pmevo/internal/isa"
)

// Scale controls the size of every experiment.
type Scale struct {
	// MaxFormsPerClass caps the instruction forms per semantic class
	// used in the inference pipeline and benchmark sets (0: all).
	// The paper uses the full 310/390-form sets.
	MaxFormsPerClass int
	// Population is the evolutionary algorithm's population size
	// (paper: 100,000).
	Population int
	// MaxGenerations bounds the evolution loop.
	MaxGenerations int
	// BenchmarkExperiments is the accuracy benchmark set size per
	// architecture (paper: 40,000 experiments of size 5).
	BenchmarkExperiments int
	// BenchmarkLength is the instruction multiset size of benchmark
	// experiments (paper: 5).
	BenchmarkLength int
	// Figure6Samples is the number of random experiments per length
	// (paper: 2,000).
	Figure6Samples int
	// Figure6MaxLen is the largest experiment length (paper: 15).
	Figure6MaxLen int
	// Figure8Mappings, Figure8Experiments and Figure8Reps control the
	// §5.4 performance study (paper: 8 mappings × 128 experiments,
	// mean over 1,000 simulations each).
	Figure8Mappings    int
	Figure8Experiments int
	Figure8Reps        int
	// IthemalBlocks is the training set size of the learned baseline.
	IthemalBlocks int
	// Islands shards the evolutionary population into concurrently
	// evolving sub-populations with ring migration (see
	// evo.Options.Islands). 0 keeps the single-population algorithm —
	// the zero value reproduces historical runs bit-exactly.
	Islands int
	// MigrationInterval and MigrationCount configure the island
	// exchange (see evo.Options; zero values select the evo defaults).
	// Ignored with Islands <= 1.
	MigrationInterval int
	MigrationCount    int
	// CheckpointDir, CheckpointInterval and Resume configure crash-safe
	// checkpointing of the inference pipeline's evolutionary search (see
	// evo.Options). The zero values — no checkpoint directory, no resume
	// — keep historical runs bit-exact; a set CheckpointDir only changes
	// what is written to disk, never the trajectory.
	CheckpointDir      string
	CheckpointInterval int
	Resume             bool
	// Log, when non-nil, receives checkpoint/resume diagnostics from
	// the evolutionary search (Printf-style). Purely informational —
	// never part of the trajectory. Nil means silent.
	Log func(format string, args ...any)
	// Seed derives all pseudo-random choices.
	Seed int64
}

// DefaultScale finishes the whole evaluation in a few minutes on a
// laptop while preserving every qualitative result.
func DefaultScale() Scale {
	return Scale{
		MaxFormsPerClass:     3,
		Population:           300,
		MaxGenerations:       40,
		BenchmarkExperiments: 1500,
		BenchmarkLength:      5,
		Figure6Samples:       150,
		Figure6MaxLen:        15,
		Figure8Mappings:      4,
		Figure8Experiments:   16,
		Figure8Reps:          20,
		IthemalBlocks:        1200,
		Seed:                 1,
	}
}

// QuickScale is a smoke-test scale for unit tests and benchmarks.
func QuickScale() Scale {
	return Scale{
		MaxFormsPerClass:     1,
		Population:           80,
		MaxGenerations:       15,
		BenchmarkExperiments: 120,
		BenchmarkLength:      5,
		Figure6Samples:       25,
		Figure6MaxLen:        8,
		Figure8Mappings:      2,
		Figure8Experiments:   6,
		Figure8Reps:          5,
		IthemalBlocks:        250,
		Seed:                 1,
	}
}

// FullScale restores the paper's experiment sizes. Expect very long
// runtimes (the paper reports 5–21 h of inference per architecture).
func FullScale() Scale {
	return Scale{
		MaxFormsPerClass:     0,
		Population:           100000,
		MaxGenerations:       200,
		BenchmarkExperiments: 40000,
		BenchmarkLength:      5,
		Figure6Samples:       2000,
		Figure6MaxLen:        15,
		Figure8Mappings:      8,
		Figure8Experiments:   128,
		Figure8Reps:          1000,
		IthemalBlocks:        20000,
		Seed:                 1,
	}
}

// Validate checks the scale for sanity.
func (s Scale) Validate() error {
	if s.Population < 2 || s.MaxGenerations < 1 {
		return fmt.Errorf("eval: invalid EA scale %d/%d", s.Population, s.MaxGenerations)
	}
	if s.BenchmarkExperiments < 1 || s.BenchmarkLength < 1 {
		return fmt.Errorf("eval: invalid benchmark scale")
	}
	if s.Figure6Samples < 1 || s.Figure6MaxLen < 1 {
		return fmt.Errorf("eval: invalid figure 6 scale")
	}
	if s.Figure8Mappings < 1 || s.Figure8Experiments < 1 || s.Figure8Reps < 1 {
		return fmt.Errorf("eval: invalid figure 8 scale")
	}
	return nil
}

// SubsetForms picks a deterministic, class-stratified subset of the
// ISA's forms: up to MaxFormsPerClass per semantic class. It returns the
// subset ISA and the original form IDs, aligned by new form ID.
func SubsetForms(a *isa.ISA, maxPerClass int) (*isa.ISA, []int, error) {
	if maxPerClass <= 0 {
		ids := make([]int, a.NumForms())
		for i := range ids {
			ids[i] = i
		}
		return a, ids, nil
	}
	var picked []*isa.Form
	var ids []int
	for _, class := range a.Classes() {
		forms := a.FormsInClass(class)
		n := maxPerClass
		if n > len(forms) {
			n = len(forms)
		}
		for _, f := range forms[:n] {
			picked = append(picked, f)
			ids = append(ids, f.ID)
		}
	}
	sub, err := a.Subset(a.Name+"-subset", picked)
	if err != nil {
		return nil, nil, err
	}
	return sub, ids, nil
}
