package espec

import (
	"strings"
	"testing"
)

// FuzzParse feeds arbitrary specifications to Parse. It must never
// panic, every experiment it accepts has only positive counts, and
// Format renders an accepted experiment into tokens that Parse reads
// back as the same experiment. The seed corpus (testdata/fuzz/FuzzParse)
// includes two counts whose merged total overflows int.
func FuzzParse(f *testing.F) {
	r := testResolver()
	f.Fuzz(func(t *testing.T, spec string) {
		e, err := r.Parse(strings.Fields(spec))
		if err != nil {
			return
		}
		for _, term := range e {
			if term.Count < 1 {
				t.Fatalf("Parse(%q) accepted count %d for instruction %d", spec, term.Count, term.Inst)
			}
		}
		text := r.Format(e)
		back, err := r.Parse(strings.Fields(text))
		if err != nil {
			t.Fatalf("Format of Parse(%q) = %q does not parse: %v", spec, text, err)
		}
		if back.Key() != e.Key() {
			t.Fatalf("round trip of %q changed the experiment: %v vs %v", spec, back, e)
		}
	})
}
