package measure

import (
	"testing"

	"pmevo/internal/portmap"
	"pmevo/internal/uarch"
)

// FuzzBuildLoop drives BuildLoop on SKL with three (instruction, count)
// terms; a zero-count term drops out, so one to three terms reach the
// builder. It must never panic, and a body it returns must hold
// `instances` copies of every instruction of an experiment of at most
// maxExperimentInsts instructions. The loop arena, reused across inputs,
// must return the same body, instance count and error as the reference
// builder (checkArenaTwin). The seed corpus
// (testdata/fuzz/FuzzBuildLoop) holds an all-negative, a mixed-sign and
// an over-limit experiment and one valid weighted pair.
func FuzzBuildLoop(f *testing.F) {
	h, err := NewHarness(uarch.SKL(), DefaultOptions())
	if err != nil {
		f.Fatal(err)
	}
	a := new(loopArena)
	f.Fuzz(func(t *testing.T, i0, c0, i1, c1, i2, c2 int) {
		e := portmap.Experiment{{Inst: i0, Count: c0}, {Inst: i1, Count: c1}, {Inst: i2, Count: c2}}
		checkArenaTwin(t, h, a, e)
		body, instances, err := h.BuildLoop(e)
		if err != nil {
			return
		}
		total := e.TotalCount()
		if total > maxExperimentInsts {
			t.Fatalf("%v: built an experiment of %d instructions, limit %d", e, total, maxExperimentInsts)
		}
		if len(body) != instances*total {
			t.Fatalf("%v: body of %d instructions, want %d instances × %d", e, len(body), instances, total)
		}
	})
}
